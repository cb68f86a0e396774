// rfprofile runs the profile-based false-positive mitigation workflow of
// paper Fig. 5: phase 1 instruments the binary for profiling and runs it
// against a test suite to generate an allow-list; with -harden it also
// produces the final production binary.
//
// Usage:
//
//	rfprofile -tests "1,2,3;4,5" [-allowlist allow.lst] [-harden prog.hard.relf] prog.relf
//
// -tests is a semicolon-separated list of test inputs, each a
// comma-separated vector of rf_input values.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"redfat"
	"redfat/internal/fuzz"
	"redfat/internal/profile"
)

func main() {
	tests := flag.String("tests", "", "test-suite inputs: \"1,2;3,4\" (required)")
	allowOut := flag.String("allowlist", "allow.lst", "allow-list output file")
	hardenOut := flag.String("harden", "", "also produce the hardened binary")
	reads := flag.Bool("reads", true, "production binary checks reads too")
	size := flag.Bool("size", true, "production binary keeps metadata hardening")
	fuzzRuns := flag.Int("fuzz", 0, "boost coverage with N coverage-guided fuzzing runs")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: rfprofile -tests \"in1;in2\" [flags] prog.relf\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 || *tests == "" {
		flag.Usage()
		os.Exit(2)
	}

	bin, err := redfat.LoadBinary(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	var suite [][]uint64
	for _, t := range strings.Split(*tests, ";") {
		var in []uint64
		for _, f := range strings.Split(t, ",") {
			f = strings.TrimSpace(f)
			if f == "" {
				continue
			}
			v, err := strconv.ParseUint(f, 0, 64)
			if err != nil {
				fatal(fmt.Errorf("bad test input %q", f))
			}
			in = append(in, v)
		}
		suite = append(suite, in)
	}

	opt := redfat.Defaults()
	opt.CheckReads = *reads
	opt.SizeCheck = *size

	var (
		hard  *redfat.Binary
		allow redfat.AllowList
		rep   *redfat.Report
		err2  error
	)
	if *fuzzRuns > 0 {
		hard, allow, rep, err2 = fuzzBoostedWorkflow(bin, suite, opt, *fuzzRuns)
	} else {
		hard, allow, rep, err2 = redfat.ProfileAndHarden(bin, suite, opt)
	}
	if err2 != nil {
		fatal(err2)
	}
	if err := redfat.SaveAllowList(allow, *allowOut); err != nil {
		fatal(err)
	}
	fmt.Printf("%s: %d allow-listed sites from %d test runs\n",
		*allowOut, len(allow), len(suite))
	if *hardenOut != "" {
		if err := redfat.SaveBinary(hard, *hardenOut); err != nil {
			fatal(err)
		}
		fmt.Printf("%s: %d checks (%d full, %d redzone-only)\n",
			*hardenOut, rep.Checks, rep.FullChecks, rep.Checks-rep.FullChecks)
	}
}

// fuzzBoostedWorkflow is the Fig. 5 workflow with an E9AFL-style
// coverage-guided boost of the profiling phase (paper §5).
func fuzzBoostedWorkflow(bin *redfat.Binary, suite [][]uint64,
	opt redfat.Options, runs int) (*redfat.Binary, redfat.AllowList, *redfat.Report, error) {
	profBin, _, err := redfat.Harden(bin, profile.PhaseOneOptions(opt))
	if err != nil {
		return nil, nil, nil, err
	}
	res, err := fuzz.Boost(profBin, suite, fuzz.Options{MaxRuns: runs})
	if err != nil {
		return nil, nil, nil, err
	}
	fmt.Printf("fuzzing: %d runs, coverage %d → %d sites, corpus %d\n",
		res.Runs, res.SeedSites, res.SitesCovered, len(res.Corpus))
	allow := res.Profiler.AllowList()
	prodOpt := opt
	prodOpt.AllowList = allow
	hard, rep, err := redfat.Harden(bin, prodOpt)
	return hard, allow, rep, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rfprofile:", err)
	os.Exit(1)
}
