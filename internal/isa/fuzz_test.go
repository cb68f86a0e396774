package isa

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeEncode checks that decode∘encode is the identity: every byte
// string Decode accepts re-encodes, through Encode, to exactly the bytes
// it consumed. e9's relocation of displaced instructions and the
// translation validator both depend on it. The seed corpus lives in
// testdata/fuzz/FuzzDecodeEncode; run the fuzzer with
//
//	go test -run '^$' -fuzz FuzzDecodeEncode ./internal/isa/
func FuzzDecodeEncode(f *testing.F) {
	f.Fuzz(func(t *testing.T, code []byte) {
		in, err := Decode(code)
		if err != nil {
			return
		}
		if in.Len == 0 || int(in.Len) > len(code) {
			t.Fatalf("Decode(% x): Len %d out of range", code, in.Len)
		}
		cp := in
		enc, err := Encode(nil, &cp)
		if err != nil {
			t.Fatalf("Decode(% x) = %v, which Encode refuses: %v", code, in.String(), err)
		}
		if !bytes.Equal(enc, code[:in.Len]) {
			t.Fatalf("Decode(% x) = %v re-encodes as % x", code[:in.Len], in.String(), enc)
		}
	})
}

// TestDecodeRejectsNonCanonical pins the encodings Decode must refuse
// with a *NonCanonicalError: each parses as an instruction, but Encode
// would emit different bytes for it.
func TestDecodeRejectsNonCanonical(t *testing.T) {
	mov, add, jmp := byte(MOV), byte(ADD), byte(JMP)
	cases := []struct {
		name string
		code []byte
	}{
		{"rel8 with imm32", []byte{0x30, 0xa9, 0x30, 0x30, 0x30, 0x30}},
		{"small imm as imm32", []byte{mov, byte(FRI) | imm32<<6, 0xc0, 1, 0, 0, 0}},
		{"rel32 with imm8", []byte{jmp, byte(FRel32) | imm8<<6, 1}},
		{"register form with imm", []byte{add, byte(FRR) | imm8<<6, 0xc0, 1}},
		{"empty REX", []byte{0x40, mov, byte(FRR), 0xc0}},
		{"two REX prefixes", []byte{0x41, 0x41, mov, byte(FRR), 0xc0}},
		{"segment after REX", []byte{0x41, 0x64, mov, byte(FRM), 0x00}},
		{"two segment prefixes", []byte{0x64, 0x64, mov, byte(FRM), 0x00}},
		{"segment on register form", []byte{0x64, mov, byte(FRR), 0xc0}},
		{"unused REX.R on memory form", []byte{0x44, byte(PUSH), byte(FM), 0x00}},
		{"register form with rm bits", []byte{byte(PUSH), byte(FR), 0xc1}},
		{"memory form with reg bits", []byte{byte(PUSH), byte(FM), 0x08}},
		{"disp32 that fits disp8", []byte{mov, byte(FRM), 0x80, 8, 0, 0, 0}},
		{"disp8 of zero", []byte{mov, byte(FRM), 0x40, 0}},
		{"memory form with mod=3", []byte{mov, byte(FRM), 0xc0}},
		{"SIB without index", []byte{mov, byte(FRM), 0x04, 0x20}},
		{"absolute with scale bits", []byte{mov, byte(FRM), 0x04, 0x65, 0, 0x10, 0, 0}},
	}
	for _, c := range cases {
		_, err := Decode(c.code)
		var nc *NonCanonicalError
		if !errors.As(err, &nc) {
			t.Errorf("%s: Decode(% x) = %v, want *NonCanonicalError", c.name, c.code, err)
		}
	}
}
