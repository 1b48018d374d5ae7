// Package dna provides the DNA-sequence substrate of the reproduction:
// the paper's 2-bit base encoding (A=00, G=10, C=11, T=01), sequence types
// in the wordwise, packed, and bit-transposed formats of §II, FASTA-style
// I/O, and seeded random generators with a mutation model for planting
// homologous pairs.
package dna

import "fmt"

// Base is a 2-bit encoded DNA base, using the paper's encoding:
// A=00, G=10, C=11, T=01.
type Base uint8

const (
	A Base = 0b00
	T Base = 0b01
	G Base = 0b10
	C Base = 0b11
)

// High returns the high bit of the 2-bit code.
func (b Base) High() uint8 { return uint8(b) >> 1 & 1 }

// Low returns the low bit of the 2-bit code.
func (b Base) Low() uint8 { return uint8(b) & 1 }

// letters holds the ASCII letter of each 2-bit code.
const letters = "ATGC"

// Byte returns the ASCII letter for the base.
func (b Base) Byte() byte { return letters[b&3] }

func (b Base) String() string { return string(b.Byte()) }

// badBase marks a byte that is no base in the codes table. Every base's
// entry is its 2-bit code, so one OR over a run of entries shows whether any
// byte was bad.
const badBase = 0x80

// codes maps each byte to its base's 2-bit code, either case, or to badBase.
var codes = func() (t [256]uint8) {
	for i := range t {
		t[i] = badBase
	}
	for code, c := range letters {
		t[c] = uint8(code)
		t[c|0x20] = uint8(code) // lower case
	}
	return t
}()

// ParseBase converts an ASCII letter (either case) to a Base.
func ParseBase(c byte) (Base, error) {
	if code := codes[c]; code != badBase {
		return Base(code), nil
	}
	return 0, fmt.Errorf("dna: invalid base %q", c)
}

// Seq is a DNA sequence in "wordwise" format: one Base per element, the
// layout the paper assumes application inputs arrive in.
type Seq []Base

// Parse converts a string of ACGT letters into a sequence.
func Parse(s string) (Seq, error) {
	seq := make(Seq, len(s))
	if err := ParseInto(seq, s); err != nil {
		return nil, err
	}
	return seq, nil
}

// ParseInto is Parse into the caller's buffer: it writes the bases of s,
// a string or a byte slice, to dst[:len(s)], and fails with Parse's error
// if any byte is not a base, leaving dst's contents unspecified. It panics
// if dst is shorter than s.
//
// Each byte goes through one table lookup and the entries are ORed, so
// valid input costs no branch per base; only a failed parse scans again
// for the first bad byte's position.
func ParseInto[S ~string | ~[]byte](dst Seq, s S) error {
	dst = dst[:len(s)]
	var bad uint8
	for i := range dst {
		c := codes[s[i]]
		dst[i] = Base(c)
		bad |= c
	}
	if bad&badBase == 0 {
		return nil
	}
	for i := range dst {
		if _, err := ParseBase(s[i]); err != nil {
			return fmt.Errorf("dna: position %d: %w", i, err)
		}
	}
	return nil
}

// MustParse is Parse for constant inputs in tests and examples.
func MustParse(s string) Seq {
	seq, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return seq
}

func (s Seq) String() string {
	b := make([]byte, len(s))
	for i, c := range s {
		b[i] = letters[c&3]
	}
	return string(b)
}

// Clone returns a copy of the sequence.
func (s Seq) Clone() Seq {
	return append(Seq(nil), s...)
}

// Equal reports whether two sequences are identical.
func (s Seq) Equal(t Seq) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Packed is the paper's "packed format": four 2-bit bases per byte,
// base i stored at bit offset 2*(i mod 4) of byte i/4. It quarters memory
// against one-byte-per-base wordwise storage (at the price of the "messy
// bitwise operations" §II mentions for element access).
type Packed struct {
	bits []byte
	n    int
}

// Pack converts a sequence into packed format.
func Pack(s Seq) Packed {
	p := Packed{bits: make([]byte, (len(s)+3)/4), n: len(s)}
	for i, b := range s {
		p.bits[i/4] |= uint8(b) << uint(2*(i%4))
	}
	return p
}

// Len returns the number of bases.
func (p Packed) Len() int { return p.n }

// At returns base i.
func (p Packed) At(i int) Base {
	if i < 0 || i >= p.n {
		panic("dna: packed index out of range")
	}
	return Base(p.bits[i/4] >> uint(2*(i%4)) & 3)
}

// Unpack converts back to wordwise format.
func (p Packed) Unpack() Seq {
	s := make(Seq, p.n)
	for i := range s {
		s[i] = p.At(i)
	}
	return s
}

// Bytes exposes the underlying packed storage (for size accounting).
func (p Packed) Bytes() []byte { return p.bits }
