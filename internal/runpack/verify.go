package runpack

import (
	"archive/tar"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"time"
)

// Stable exit codes for rfpack (and the documented contract for CI
// scripts asserting on runpack integrity). Each seeded tamper mode maps
// to exactly one code: flipping a member byte or truncating it is
// ExitBadDigest; editing the manifest or its seal is ExitBadManifest;
// renaming or removing a member is ExitMissing; an unknown or future
// manifest schema is ExitBadSchema.
const (
	ExitOK          = 0 // pack verified / replay byte-identical
	ExitToolError   = 1 // I/O or internal failure
	ExitUsage       = 2 // bad command line
	ExitBadDigest   = 3 // member content digest or size mismatch
	ExitBadManifest = 4 // manifest seal or chain digest broken
	ExitMissing     = 5 // member missing, renamed, or not in the manifest
	ExitBadSchema   = 6 // unsupported schema version / malformed manifest
	ExitReplayDiff  = 7 // replay diverged from the packed artifacts
)

// VerifyError is a verification failure carrying its stable exit code.
type VerifyError struct {
	Code   int
	Member string // offending member, when one is identifiable
	Reason string
}

// Error implements the error interface.
func (e *VerifyError) Error() string {
	if e.Member != "" {
		return fmt.Sprintf("runpack: %s: %s", e.Member, e.Reason)
	}
	return "runpack: " + e.Reason
}

// ExitCode maps an error from Verify/Replay to the rfpack exit code:
// nil is ExitOK, a *VerifyError carries its own code, anything else is
// ExitToolError.
func ExitCode(err error) int {
	if err == nil {
		return ExitOK
	}
	var ve *VerifyError
	if errors.As(err, &ve) {
		return ve.Code
	}
	return ExitToolError
}

// Pack is an opened runpack: a directory or an in-memory tarball image.
type Pack struct {
	dir     string            // non-empty when directory-backed
	files   map[string][]byte // non-nil when tarball-backed
	listing []string          // every file present, sorted
}

// Open opens a pack directory or a .tar.gz/.tgz tarball of one.
func Open(path string) (*Pack, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if fi.IsDir() {
		ents, err := os.ReadDir(path)
		if err != nil {
			return nil, err
		}
		p := &Pack{dir: path}
		for _, e := range ents {
			if e.Type().IsRegular() {
				p.listing = append(p.listing, e.Name())
			}
		}
		sort.Strings(p.listing)
		return p, nil
	}
	if strings.HasSuffix(path, ".tgz") || strings.HasSuffix(path, ".tar.gz") {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return openTar(f)
	}
	return nil, fmt.Errorf("runpack: %s is neither a directory nor a .tar.gz pack", path)
}

// openTar reads a gzipped tarball into an in-memory pack.
func openTar(r io.Reader) (*Pack, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	defer gz.Close()
	tr := tar.NewReader(gz)
	p := &Pack{files: map[string][]byte{}}
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if hdr.Typeflag != tar.TypeReg {
			continue
		}
		name := filepath.Base(hdr.Name)
		if _, dup := p.files[name]; dup {
			return nil, fmt.Errorf("runpack: tarball holds two entries named %q", name)
		}
		data, err := io.ReadAll(tr)
		if err != nil {
			return nil, err
		}
		p.files[name] = data
		p.listing = append(p.listing, name)
	}
	sort.Strings(p.listing)
	return p, nil
}

// ReadMember returns one file's content, or os.ErrNotExist.
func (p *Pack) ReadMember(name string) ([]byte, error) {
	if p.files != nil {
		data, ok := p.files[name]
		if !ok {
			return nil, fmt.Errorf("runpack member %s: %w", name, os.ErrNotExist)
		}
		return data, nil
	}
	return os.ReadFile(filepath.Join(p.dir, name))
}

// List returns every file present in the pack, sorted.
func (p *Pack) List() []string { return p.listing }

// Manifest reads and parses the manifest without verifying anything.
// Use Verify for the integrity-checked path.
func (p *Pack) Manifest() (*Manifest, error) {
	data, err := p.ReadMember(ManifestName)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// Verify re-checks the pack end to end: the outer manifest seal, the
// manifest schema, that member names are flat and unique (checked before
// any member is read), every member's size and SHA-256, the chained content
// digest, and that no unknown files hide inside the pack. On success it
// returns the (now trusted) manifest.
func Verify(p *Pack) (*Manifest, error) {
	sealData, err := p.ReadMember(DigestName)
	if err != nil {
		return nil, &VerifyError{Code: ExitBadManifest, Member: DigestName,
			Reason: "missing pack seal"}
	}
	manData, err := p.ReadMember(ManifestName)
	if err != nil {
		return nil, &VerifyError{Code: ExitBadManifest, Member: ManifestName,
			Reason: "missing manifest"}
	}
	fields := strings.Fields(string(sealData))
	if len(fields) != 2 || fields[0] != digestPrefix {
		return nil, &VerifyError{Code: ExitBadManifest, Member: DigestName,
			Reason: "malformed pack seal"}
	}
	sum := sha256.Sum256(manData)
	if fields[1] != hex.EncodeToString(sum[:]) {
		return nil, &VerifyError{Code: ExitBadManifest, Member: ManifestName,
			Reason: "manifest does not match its seal digest"}
	}
	var man Manifest
	if err := json.Unmarshal(manData, &man); err != nil {
		return nil, &VerifyError{Code: ExitBadSchema, Member: ManifestName,
			Reason: fmt.Sprintf("malformed manifest: %v", err)}
	}
	if man.SchemaVersion != SchemaVersion {
		return nil, &VerifyError{Code: ExitBadSchema, Member: ManifestName,
			Reason: fmt.Sprintf("unsupported schema_version %d (tool supports %d)",
				man.SchemaVersion, SchemaVersion)}
	}
	known := map[string]bool{ManifestName: true, DigestName: true}
	for _, m := range man.Members {
		if !validMemberName(m.Name) || known[m.Name] {
			return nil, &VerifyError{Code: ExitBadSchema, Member: ManifestName,
				Reason: fmt.Sprintf("invalid or duplicate member name %q", m.Name)}
		}
		known[m.Name] = true
	}
	for _, m := range man.Members {
		data, err := p.ReadMember(m.Name)
		if err != nil {
			return nil, &VerifyError{Code: ExitMissing, Member: m.Name,
				Reason: "member missing from pack"}
		}
		if int64(len(data)) != m.Size {
			return nil, &VerifyError{Code: ExitBadDigest, Member: m.Name,
				Reason: fmt.Sprintf("size %d, manifest records %d", len(data), m.Size)}
		}
		sum := sha256.Sum256(data)
		if hex.EncodeToString(sum[:]) != m.SHA256 {
			return nil, &VerifyError{Code: ExitBadDigest, Member: m.Name,
				Reason: "content digest mismatch"}
		}
	}
	if got := chainDigest(man.Members); got != man.ChainDigest {
		return nil, &VerifyError{Code: ExitBadManifest, Member: ManifestName,
			Reason: "chain digest mismatch"}
	}
	for _, name := range p.List() {
		if !known[name] {
			return nil, &VerifyError{Code: ExitMissing, Member: name,
				Reason: "file present in pack but not in manifest"}
		}
	}
	if k := man.Knobs; k != nil {
		opt, hasAllowList, err := k.decode()
		if err != nil {
			return nil, err
		}
		if !reflect.DeepEqual(k.Options, opt) || k.HasAllowList != hasAllowList {
			return nil, &VerifyError{Code: ExitBadSchema, Member: ManifestName,
				Reason: "knob fields disagree with config_hex " + k.ConfigHex}
		}
	}
	return &man, nil
}

// VerifyPath opens and verifies a pack directory or tarball in one step.
func VerifyPath(path string) (*Manifest, error) {
	p, err := Open(path)
	if err != nil {
		return nil, err
	}
	return Verify(p)
}

// Tar writes a sealed pack directory as a deterministic gzipped tarball:
// entries sorted by name, zeroed timestamps and ownership, fixed modes.
// The same pack always produces the same bytes.
func Tar(dir string, w io.Writer) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var names []string
	for _, e := range ents {
		if e.Type().IsRegular() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	gz, err := gzip.NewWriterLevel(w, gzip.BestCompression)
	if err != nil {
		return err
	}
	tw := tar.NewWriter(gz)
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		hdr := &tar.Header{
			Name:     name,
			Mode:     0o644,
			Size:     int64(len(data)),
			ModTime:  time.Unix(0, 0),
			Typeflag: tar.TypeReg,
			Format:   tar.FormatPAX,
		}
		if err := tw.WriteHeader(hdr); err != nil {
			return err
		}
		if _, err := tw.Write(data); err != nil {
			return err
		}
	}
	if err := tw.Close(); err != nil {
		return err
	}
	return gz.Close()
}
