// Package knob turns a configuration struct into command-line flags, so a
// knob is declared once: as a field whose `flag` tag names its flag and
// whose `usage` tag is its help text. redfat registers the hardening
// options (redfat.Options) this way, rfvm the run options
// (rtlib.RunConfig); flags that are not fields stay hand-written.
package knob

import (
	"flag"
	"fmt"
	"reflect"
)

// Flags registers on fs one flag per flag-tagged field of the struct cfg
// points to. Each flag parses straight into its field and defaults to the
// field's current value. Fields of kind bool, int, int64 and uint64 are
// supported; any other tagged field is a declaration bug and panics.
func Flags(fs *flag.FlagSet, cfg any) {
	v := reflect.ValueOf(cfg).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		name, ok := f.Tag.Lookup("flag")
		if !ok {
			continue
		}
		usage := f.Tag.Get("usage")
		switch p := v.Field(i).Addr().Interface().(type) {
		case *bool:
			fs.BoolVar(p, name, *p, usage)
		case *int:
			fs.IntVar(p, name, *p, usage)
		case *int64:
			fs.Int64Var(p, name, *p, usage)
		case *uint64:
			fs.Uint64Var(p, name, *p, usage)
		default:
			panic(fmt.Sprintf("knob: field %s has flag %q but unsupported type %T", f.Name, name, p))
		}
	}
}
