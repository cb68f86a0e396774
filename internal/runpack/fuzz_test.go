package runpack

import (
	"bytes"
	"path/filepath"
	"testing"
)

// FuzzOpenTar: reading an arbitrary byte string as a runpack tarball and
// verifying whatever it opened either succeeds or returns an error; it
// never panics. The seeds are the committed packs as tarballs (which
// must verify), an empty input and a truncated tarball.
func FuzzOpenTar(f *testing.F) {
	for _, name := range []string{"redfat-v6-rewrite", "rfvm-v6-knobs"} {
		var buf bytes.Buffer
		if err := Tar(filepath.Join("testdata", name), &buf); err != nil {
			f.Fatal(err)
		}
		p, err := openTar(bytes.NewReader(buf.Bytes()))
		if err == nil {
			_, err = Verify(p)
		}
		if err != nil {
			f.Fatalf("%s as a tarball: %v", name, err)
		}
		f.Add(buf.Bytes())
		if name == "rfvm-v6-knobs" {
			f.Add(buf.Bytes()[:buf.Len()/2])
		}
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := openTar(bytes.NewReader(data))
		if err != nil {
			return
		}
		_, _ = Verify(p) // any verdict is fine; a panic is not
	})
}
