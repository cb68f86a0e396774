package redfat_test

import (
	"bytes"
	"errors"
	"testing"

	"redfat/internal/redfat"
)

// TestDecodeConfigRejects pins the strict .rf.config decode: anything
// EncodeConfig cannot write is a *ConfigError, not a silently truncated
// or partially ignored configuration.
func TestDecodeConfigRejects(t *testing.T) {
	good := redfat.EncodeConfig(redfat.Defaults())
	withByte := func(i int, b byte) []byte {
		out := bytes.Clone(good)
		out[i] = b
		return out
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short", good[:4]},
		{"long", append(bytes.Clone(good), 0)},
		{"version-0", withByte(0, 0)},
		{"version-2", withByte(0, 2)},
		{"undefined-bit-5", withByte(2, good[2]|1<<5)},
		{"undefined-bit-7", withByte(2, good[2]|1<<7)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := redfat.DecodeConfig(tc.data)
			var ce *redfat.ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("DecodeConfig(% x) = %v, want a *ConfigError", tc.data, err)
			}
		})
	}
}

// TestHardenRejectsUnrecordableMaxBatch: .rf.config stores MaxBatch in 16
// bits, so Harden refuses values it could not record faithfully instead
// of batching under one limit and recording another.
func TestHardenRejectsUnrecordableMaxBatch(t *testing.T) {
	bin := buildHeapProgram(t)
	for _, mb := range []int{-1, 65536, 70000} {
		opt := redfat.Defaults()
		opt.MaxBatch = mb
		if _, _, err := redfat.Harden(bin, opt); err == nil {
			t.Errorf("Harden accepted MaxBatch %d", mb)
		}
	}
	opt := redfat.Defaults()
	opt.MaxBatch = 65535
	hard, _, err := redfat.Harden(bin, opt)
	if err != nil {
		t.Fatalf("MaxBatch 65535: %v", err)
	}
	got, _, err := redfat.DecodeConfig(hard.Section(redfat.ConfigSection).Data)
	if err != nil || got.MaxBatch != 65535 {
		t.Fatalf("recorded MaxBatch %d (%v), want 65535", got.MaxBatch, err)
	}
}

// FuzzDecodeConfig checks that DecodeConfig accepts exactly what
// EncodeConfig writes: every accepted input re-encodes to the same bytes,
// and every rejection is a *ConfigError. The seed corpus in
// testdata/fuzz/FuzzDecodeConfig holds the section of every Table 1
// configuration.
func FuzzDecodeConfig(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		opt, hasAllowList, err := redfat.DecodeConfig(data)
		if err != nil {
			var ce *redfat.ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("DecodeConfig(% x): %v is not a *ConfigError", data, err)
			}
			return
		}
		if hasAllowList {
			opt.AllowList = map[uint64]bool{}
		}
		if again := redfat.EncodeConfig(opt); !bytes.Equal(again, data) {
			t.Fatalf("DecodeConfig(% x) re-encodes as % x", data, again)
		}
	})
}
