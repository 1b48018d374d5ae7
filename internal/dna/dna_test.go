package dna

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
)

func TestEncoding(t *testing.T) {
	// The paper's encoding: A=00, G=10, C=11, T=01.
	cases := []struct {
		b      Base
		hi, lo uint8
		letter byte
	}{
		{A, 0, 0, 'A'},
		{T, 0, 1, 'T'},
		{G, 1, 0, 'G'},
		{C, 1, 1, 'C'},
	}
	for _, c := range cases {
		if c.b.High() != c.hi || c.b.Low() != c.lo {
			t.Errorf("%c: bits = %d%d, want %d%d", c.letter, c.b.High(), c.b.Low(), c.hi, c.lo)
		}
		if c.b.Byte() != c.letter {
			t.Errorf("Byte() = %c, want %c", c.b.Byte(), c.letter)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	s := "ATTCGGACTA"
	seq, err := Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	if seq.String() != s {
		t.Errorf("round trip: got %q", seq.String())
	}
	if _, err := Parse("ATXG"); err == nil {
		t.Error("Parse should reject X")
	}
	if _, err := ParseBase('N'); err == nil {
		t.Error("ParseBase should reject N")
	}
	lower, err := Parse("atcg")
	if err != nil || lower.String() != "ATCG" {
		t.Errorf("lowercase parse failed: %v %q", err, lower)
	}
}

// switchParseBase is the per-byte switch ParseBase was before the code
// table; the table must accept and reject exactly the same bytes.
func switchParseBase(c byte) (Base, bool) {
	switch c {
	case 'A', 'a':
		return A, true
	case 'T', 't':
		return T, true
	case 'G', 'g':
		return G, true
	case 'C', 'c':
		return C, true
	}
	return 0, false
}

// TestParseTableMatchesSwitch pins the table-driven parse to the switch it
// replaced: every byte value is accepted or rejected as before, and the
// error text for a bad byte at the first, a middle and the last position
// is byte for byte what the switch-based Parse printed.
func TestParseTableMatchesSwitch(t *testing.T) {
	for c := 0; c < 256; c++ {
		want, ok := switchParseBase(byte(c))
		got, err := ParseBase(byte(c))
		if (err == nil) != ok || got != want {
			t.Errorf("ParseBase(%#02x) = %v, %v; want %v, ok=%v", c, got, err, want, ok)
		}
		if err != nil && err.Error() != fmt.Sprintf("dna: invalid base %q", byte(c)) {
			t.Errorf("ParseBase(%#02x) error %q", c, err)
		}
		s := "AC" + string([]byte{byte(c)}) + "GT"
		seq, err := Parse(s)
		if (err == nil) != ok || (ok && seq[2] != want) {
			t.Errorf("Parse(%q) = %v, %v", s, seq, err)
		}
	}
	cases := []struct{ in, err string }{
		{"\x00CGT", `dna: position 0: dna: invalid base '\x00'`},
		{"ACNGT", `dna: position 2: dna: invalid base 'N'`},
		{"ACGTX", `dna: position 4: dna: invalid base 'X'`},
		{"ACGT\xff", `dna: position 4: dna: invalid base 'ÿ'`},
		{"acgt\xc3\xa9", `dna: position 4: dna: invalid base 'Ã'`},
		{"A\"CGT", `dna: position 1: dna: invalid base '"'`},
		{"ACGT\\", `dna: position 4: dna: invalid base '\\'`},
	}
	for _, tc := range cases {
		if _, err := Parse(tc.in); err == nil || err.Error() != tc.err {
			t.Errorf("Parse(%q) error %v, want %q", tc.in, err, tc.err)
		}
		dst := make(Seq, len(tc.in))
		if err := ParseInto(dst, []byte(tc.in)); err == nil || err.Error() != tc.err {
			t.Errorf("ParseInto(%q) error %v, want %q", tc.in, err, tc.err)
		}
	}
}

func TestParseIntoMatchesParse(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for _, n := range []int{0, 1, 7, 64, 1000} {
		s := RandSeq(rng, n).String()
		mixed := []byte(s)
		for i := range mixed {
			if rng.IntN(2) == 0 {
				mixed[i] |= 0x20 // lower case
			}
		}
		want := MustParse(s)
		dst := make(Seq, n+3) // a buffer longer than s, as an arena is
		if err := ParseInto(dst, mixed); err != nil || !dst[:n].Equal(want) {
			t.Fatalf("n=%d: ParseInto = %v, %v; want %v", n, dst[:n], err, want)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse with bad input did not panic")
		}
	}()
	MustParse("AZ")
}

func TestSeqCloneEqual(t *testing.T) {
	s := MustParse("ACGT")
	c := s.Clone()
	if !s.Equal(c) {
		t.Error("clone not equal")
	}
	c[0] = T
	if s.Equal(c) {
		t.Error("mutation of clone affected equality")
	}
	if s.Equal(s[:3]) {
		t.Error("different lengths compare equal")
	}
}

func TestPackedRoundTrip(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		rng := rand.New(rand.NewPCG(seed, 0))
		n := int(nRaw % 200)
		s := RandSeq(rng, n)
		p := Pack(s)
		if p.Len() != n {
			return false
		}
		return p.Unpack().Equal(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPackedSize(t *testing.T) {
	p := Pack(RandSeq(rand.New(rand.NewPCG(1, 1)), 100))
	if len(p.Bytes()) != 25 {
		t.Errorf("100 bases pack to %d bytes, want 25", len(p.Bytes()))
	}
}

func TestPackedAtBounds(t *testing.T) {
	p := Pack(MustParse("ACGT"))
	defer func() {
		if recover() == nil {
			t.Error("At(4) did not panic")
		}
	}()
	p.At(4)
}

func TestTransposeGroupMatchesNaive32(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 3))
	for _, count := range []int{1, 7, 32} {
		seqs := make([]Seq, count)
		for i := range seqs {
			seqs[i] = RandSeq(rng, 50)
		}
		fast, err := TransposeGroup[uint32](seqs)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := TransposeGroupNaive[uint32](seqs)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			if fast.H[i] != naive.H[i] || fast.L[i] != naive.L[i] {
				t.Fatalf("count=%d position %d: fast (%#x,%#x) naive (%#x,%#x)",
					count, i, fast.H[i], fast.L[i], naive.H[i], naive.L[i])
			}
		}
	}
}

func TestTransposeGroupMatchesNaive64(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 5))
	seqs := make([]Seq, 64)
	for i := range seqs {
		seqs[i] = RandSeq(rng, 33)
	}
	fast, err := TransposeGroup[uint64](seqs)
	if err != nil {
		t.Fatal(err)
	}
	naive, _ := TransposeGroupNaive[uint64](seqs)
	for i := 0; i < 33; i++ {
		if fast.H[i] != naive.H[i] || fast.L[i] != naive.L[i] {
			t.Fatalf("position %d mismatch", i)
		}
	}
}

func TestTransposedLaneRecovers(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 7))
	seqs := make([]Seq, 32)
	for i := range seqs {
		seqs[i] = RandSeq(rng, 40)
	}
	tr, err := TransposeGroup[uint32](seqs)
	if err != nil {
		t.Fatal(err)
	}
	for k, s := range seqs {
		if !tr.Lane(k).Equal(s) {
			t.Fatalf("lane %d does not recover sequence", k)
		}
	}
}

func TestTransposeGroupErrors(t *testing.T) {
	if _, err := TransposeGroup[uint32](nil); err == nil {
		t.Error("empty group should fail")
	}
	if _, err := TransposeGroup[uint32](make([]Seq, 33)); err == nil {
		t.Error("oversized group should fail")
	}
	if _, err := TransposeGroup[uint32]([]Seq{MustParse("ACG"), MustParse("AC")}); err == nil {
		t.Error("ragged group should fail")
	}
	if _, err := TransposeGroupNaive[uint32]([]Seq{MustParse("ACG"), MustParse("AC")}); err == nil {
		t.Error("ragged group should fail (naive)")
	}
}

// TestPaperBitTransposeExample reproduces the §II worked example: the first
// pattern column of X0=ATCGA, X1=TCGAC, X2=AAAAA, X3=TTTTT in 4-lane form.
// The paper lists X0^H=0000, X0^L=1010 for column 0 (lanes 3..0 = T,A,T,A).
func TestPaperBitTransposeExample(t *testing.T) {
	seqs := []Seq{
		MustParse("ATCGA"),
		MustParse("TCGAC"),
		MustParse("AAAAA"),
		MustParse("TTTTT"),
	}
	tr, err := TransposeGroupNaive[uint32](seqs)
	if err != nil {
		t.Fatal(err)
	}
	// Column 0 characters: A,T,A,T (lanes 0..3). High bits all 0;
	// low bits: lane1 (T) and lane3 (T) set -> 1010 reading lane3..lane0.
	wantH := []uint32{0b0000, 0b0010, 0b0011, 0b0001, 0b0010}
	wantL := []uint32{0b1010, 0b1011, 0b1001, 0b1000, 0b1010}
	for i := range wantH {
		if tr.H[i] != wantH[i] || tr.L[i] != wantL[i] {
			t.Errorf("column %d: got H=%04b L=%04b, paper says H=%04b L=%04b",
				i, tr.H[i], tr.L[i], wantH[i], wantL[i])
		}
	}
}

func TestRandSeqGC(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 9))
	s := RandSeqGC(rng, 100000, 0.7)
	gc := 0
	for _, b := range s {
		if b == G || b == C {
			gc++
		}
	}
	frac := float64(gc) / float64(len(s))
	if frac < 0.68 || frac > 0.72 {
		t.Errorf("GC content %.3f far from requested 0.7", frac)
	}
}

func TestMutateRates(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 11))
	s := RandSeq(rng, 10000)
	m := MutationModel{SubRate: 0.1}
	mut := m.Mutate(rng, s)
	if len(mut) != len(s) {
		t.Fatalf("sub-only mutation changed length: %d -> %d", len(s), len(mut))
	}
	diff := 0
	for i := range s {
		if s[i] != mut[i] {
			diff++
		}
	}
	frac := float64(diff) / float64(len(s))
	if frac < 0.08 || frac > 0.12 {
		t.Errorf("substitution rate %.3f far from 0.1", frac)
	}
}

func TestMutateIndels(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 13))
	s := RandSeq(rng, 1000)
	longer := MutationModel{InsRate: 0.2}.Mutate(rng, s)
	if len(longer) <= len(s) {
		t.Error("insertions did not lengthen sequence")
	}
	shorter := MutationModel{DelRate: 0.2}.Mutate(rng, s)
	if len(shorter) >= len(s) {
		t.Error("deletions did not shorten sequence")
	}
	if got := (MutationModel{DelRate: 1}).Mutate(rng, s); len(got) == 0 {
		t.Error("full deletion should still leave one base")
	}
}

func TestRandomPairs(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 15))
	pairs := RandomPairs(rng, 10, 16, 64)
	if len(pairs) != 10 {
		t.Fatalf("got %d pairs", len(pairs))
	}
	for _, p := range pairs {
		if len(p.X) != 16 || len(p.Y) != 64 {
			t.Fatalf("pair has lengths %d,%d", len(p.X), len(p.Y))
		}
	}
}

func TestPlantedPairsContainHomology(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 17))
	pairs := PlantedPairs(rng, 20, 12, 100, 1.0, MutationModel{})
	for i, p := range pairs {
		if !strings.Contains(p.Y.String(), p.X.String()) {
			t.Errorf("pair %d: exact plant not found in text", i)
		}
	}
}

func TestFASTARoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 19))
	recs := []Record{
		{Name: "chr1 test", Seq: RandSeq(rng, 150)},
		{Name: "short", Seq: MustParse("ACGT")},
	}
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, recs...); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFASTA(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d records", len(got))
	}
	for i := range recs {
		if got[i].Name != recs[i].Name || !got[i].Seq.Equal(recs[i].Seq) {
			t.Errorf("record %d mismatch", i)
		}
	}
}

func TestReadFASTAErrors(t *testing.T) {
	if _, err := ReadFASTA(strings.NewReader("ACGT\n")); err == nil {
		t.Error("data before header should fail")
	}
	if _, err := ReadFASTA(strings.NewReader(">x\nACGZ\n")); err == nil {
		t.Error("invalid base should fail")
	}
	recs, err := ReadFASTA(strings.NewReader("; comment\n\n>x\nAC\nGT\n"))
	if err != nil || len(recs) != 1 || recs[0].Seq.String() != "ACGT" {
		t.Errorf("comment/multiline parse failed: %v %+v", err, recs)
	}
}

func BenchmarkTransposeGroup32(b *testing.B) {
	rng := rand.New(rand.NewPCG(20, 21))
	seqs := make([]Seq, 32)
	for i := range seqs {
		seqs[i] = RandSeq(rng, 1024)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := TransposeGroup[uint32](seqs); err != nil {
			b.Fatal(err)
		}
	}
}

func TestComplement(t *testing.T) {
	pairs := map[Base]Base{A: T, T: A, G: C, C: G}
	for b, want := range pairs {
		if b.Complement() != want {
			t.Errorf("%v complement = %v, want %v", b, b.Complement(), want)
		}
	}
}

func TestReverseComplement(t *testing.T) {
	s := MustParse("AACGT")
	rc := s.ReverseComplement()
	if rc.String() != "ACGTT" {
		t.Errorf("revcomp = %s, want ACGTT", rc)
	}
	// Involution.
	if !rc.ReverseComplement().Equal(s) {
		t.Error("reverse complement twice is not identity")
	}
	if len(Seq(nil).ReverseComplement()) != 0 {
		t.Error("empty revcomp should be empty")
	}
}

func TestReverseComplementProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 50))
		s := RandSeq(rng, rng.IntN(100))
		return s.ReverseComplement().ReverseComplement().Equal(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
