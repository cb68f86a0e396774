package relf

import (
	"errors"
	"reflect"
	"testing"
)

// TestDecodeTablesRejectOversizedCount: a record count the section data
// cannot hold is a *tableError, never an out-of-range index. The patch
// table's 8-byte section with count 0x3000000000000000 used to pass the
// bounds check, because 8+16*n wraps to 8.
func TestDecodeTablesRejectOversizedCount(t *testing.T) {
	var te *tableError
	wrapped := []byte{0, 0, 0, 0, 0, 0, 0, 0x30}
	if _, err := DecodePatchTable(wrapped); !errors.As(err, &te) {
		t.Errorf("DecodePatchTable(% x) = %v, want *tableError", wrapped, err)
	}
	short := EncodePatchTable(map[uint64]uint64{1: 2})
	if _, err := DecodePatchTable(short[:len(short)-1]); !errors.As(err, &te) {
		t.Errorf("DecodePatchTable(truncated) = %v, want *tableError", err)
	}
	huge := []byte{jtVersion, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}
	if _, err := DecodeJumpTables(huge); !errors.As(err, &te) {
		t.Errorf("DecodeJumpTables(% x) = %v, want *tableError", huge, err)
	}
	short = EncodeJumpTables([]JumpTable{{Addr: 1, Entries: 2}})
	if _, err := DecodeJumpTables(short[:len(short)-1]); !errors.As(err, &te) {
		t.Errorf("DecodeJumpTables(truncated) = %v, want *tableError", err)
	}
}

// FuzzDecodePatchTable: decoding arbitrary bytes never panics, every
// rejection is a *tableError, and an accepted table round-trips through
// EncodePatchTable.
func FuzzDecodePatchTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodePatchTable(data)
		if err != nil {
			var te *tableError
			if !errors.As(err, &te) {
				t.Fatalf("DecodePatchTable(% x): %v is not a *tableError", data, err)
			}
			return
		}
		back, err := DecodePatchTable(EncodePatchTable(m))
		if err != nil || !reflect.DeepEqual(back, m) {
			t.Fatalf("round trip of %v = %v, %v", m, back, err)
		}
	})
}

// FuzzDecodeJumpTables: the same contract for the jump-table section.
func FuzzDecodeJumpTables(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tables, err := DecodeJumpTables(data)
		if err != nil {
			var te *tableError
			if !errors.As(err, &te) {
				t.Fatalf("DecodeJumpTables(% x): %v is not a *tableError", data, err)
			}
			return
		}
		back, err := DecodeJumpTables(EncodeJumpTables(tables))
		if err != nil || !reflect.DeepEqual(back, tables) {
			t.Fatalf("round trip of %v = %v, %v", tables, back, err)
		}
	})
}
