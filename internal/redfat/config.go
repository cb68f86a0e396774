package redfat

import (
	"encoding/binary"
	"fmt"
)

// ConfigSection records the hardening configuration inside the produced
// binary, so the translation validator can re-derive the checking policy
// without being told the original command line. Like the site table it
// is metadata only — the VM never loads it.
const ConfigSection = ".rf.config"

// UnprotSection lists operand addresses the rewriter had to leave
// unprotected (their patch failed and could not be repaired). The
// validator exempts them from the coverage audit instead of mistaking
// them for rewriter bugs. Encoded with the patch-table format
// (addr → 0); absent when every selected operand was protected.
const UnprotSection = ".rf.unprot"

// configVersion versions the ConfigSection encoding: the version byte,
// two flag bytes laid out by configBits, and MaxBatch as a little-endian
// uint16 in bytes 3–4.
const (
	configVersion = 1
	configLen     = 5
)

// allowListBit is the byte-2 flag recording that an allow-list was in
// effect; the list itself is not stored.
const allowListBit = 1 << 2

// configBits declares the .rf.config flag bits: bit i of section byte
// 1+j holds the field configBits(o)[j][i]. The nil entry is
// allowListBit.
func configBits(o *Options) [2][]*bool {
	return [2][]*bool{
		{&o.LowFat, &o.Profile, &o.CheckReads, &o.SizeCheck, &o.Elim, &o.ElimDom, &o.Batch, &o.Merge},
		{&o.NoClobberSpec, &o.LocalLiveness, nil, &o.NoLibcCheck, &o.NoIndirect},
	}
}

// ConfigError reports a ConfigSection that DecodeConfig rejects: wrong
// length, unknown version, or a flag bit no field is declared for.
type ConfigError struct {
	Reason string
}

// Error implements the error interface.
func (e *ConfigError) Error() string { return "redfat: bad " + ConfigSection + ": " + e.Reason }

// EncodeConfig serializes the policy-relevant subset of opt.
func EncodeConfig(opt Options) []byte {
	out := make([]byte, configLen)
	out[0] = configVersion
	for j, bits := range configBits(&opt) {
		for i, p := range bits {
			if p != nil && *p {
				out[1+j] |= 1 << i
			}
		}
	}
	if opt.AllowList != nil {
		out[2] |= allowListBit
	}
	binary.LittleEndian.PutUint16(out[3:], uint16(opt.MaxBatch))
	return out
}

// DecodeConfig recovers the Options subset stored by EncodeConfig. The
// AllowList itself is not stored; hasAllowList reports whether one was
// in effect (site modes already reflect it in the site table). Anything
// EncodeConfig cannot produce is a *ConfigError.
func DecodeConfig(data []byte) (opt Options, hasAllowList bool, err error) {
	if len(data) != configLen {
		return opt, false, &ConfigError{fmt.Sprintf("%d bytes, want %d", len(data), configLen)}
	}
	if data[0] != configVersion {
		return opt, false, &ConfigError{fmt.Sprintf("unknown version %d", data[0])}
	}
	for j, bits := range configBits(&opt) {
		f := data[1+j]
		if undef := f >> len(bits); undef != 0 {
			return Options{}, false, &ConfigError{fmt.Sprintf("undefined bits %#x in flag byte %d", undef<<len(bits), 1+j)}
		}
		for i, p := range bits {
			if p != nil {
				*p = f&(1<<i) != 0
			}
		}
	}
	opt.MaxBatch = int(binary.LittleEndian.Uint16(data[3:]))
	return opt, data[2]&allowListBit != 0, nil
}
