package corpus

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/dna"
)

// ManifestSchema tags manifest.json; Open refuses other schemas.
const ManifestSchema = "repro/corpus-index/v1"

// K-mer length bounds: the posting table is a dense 4^k array, so k is
// capped where that stays small (4^10 entries ≈ 1M lists).
const (
	minK = 2
	maxK = 10
)

// minBucket is the smallest length bucket; shorter sequences share it.
const minBucket = 16

// ErrCorrupt is the sentinel wrapped by every index decode failure, so
// callers can tell corruption apart from I/O errors with errors.Is.
var ErrCorrupt = errors.New("corpus: corrupt index")

// DefaultK is the posting-list k-mer length Build uses when
// IndexOptions.K is zero.
const DefaultK = 6

// maxSeqLen is the longest reference sequence Add accepts, in bases.
// Commit records it in the manifest's max_seq_len.
const maxSeqLen = 1 << 20

// IndexOptions tunes Build.
type IndexOptions struct {
	// K is the k-mer length of the posting lists (default DefaultK,
	// range 2-10). Smaller k admits more candidates; the selectivity
	// math is laid out in DESIGN.md §16.
	K int
}

// manifest is the commit point of an index directory.
type manifest struct {
	Schema      string `json:"schema"`
	K           int    `json:"k"`
	Seqs        int    `json:"seqs"`
	Buckets     []int  `json:"buckets"`
	MaxSeqLen   int    `json:"max_seq_len"`
	TotalBases  int64  `json:"total_bases"`
	Fingerprint string `json:"fingerprint"`
}

// seqRecord is one sequence line in a segment file.
type seqRecord struct {
	ID   int    `json:"id"`
	Name string `json:"name"`
	Seq  string `json:"seq"`
}

// bucketFor returns the length bucket (smallest power of two ≥ n,
// minimum minBucket) a sequence of n bases lands in.
func bucketFor(n int) int {
	b := minBucket
	for b < n {
		b <<= 1
	}
	return b
}

// segmentFile names the segment holding one length bucket.
func segmentFile(bucket int) string { return fmt.Sprintf("seqs-%08d.log", bucket) }

// encodeLine renders one CRC-checked line (the jobstore WAL idiom).
func encodeLine(payload []byte) []byte {
	var b bytes.Buffer
	b.Grow(len(payload) + 10)
	fmt.Fprintf(&b, "%08x ", crc32.ChecksumIEEE(payload))
	b.Write(payload)
	b.WriteByte('\n')
	return b.Bytes()
}

// decodeLine verifies one line's CRC and returns the payload bytes.
func decodeLine(line []byte) ([]byte, error) {
	if len(line) < 10 || line[8] != ' ' {
		return nil, fmt.Errorf("%w: short or malformed line header", ErrCorrupt)
	}
	var sum uint32
	if _, err := fmt.Sscanf(string(line[:8]), "%08x", &sum); err != nil {
		return nil, fmt.Errorf("%w: bad CRC hex: %v", ErrCorrupt, err)
	}
	payload := line[9:]
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, fmt.Errorf("%w: CRC mismatch: header %08x, payload %08x", ErrCorrupt, sum, got)
	}
	return payload, nil
}

// fingerprint hashes every name and sequence in ID order; it is the
// identity a search job pins in its WAL record so a resume against a
// rebuilt (different) corpus fails instead of silently mixing results.
func fingerprint(names []string, seqs []dna.Seq) string {
	h := crc32.NewIEEE()
	for i, name := range names {
		io.WriteString(h, name)
		h.Write([]byte{0})
		io.WriteString(h, seqs[i].String())
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%08x", h.Sum32())
}

// Corpus is an opened index: the sequences, the k-mer posting lists
// built from them and the manifest identity, all memory-resident.
// Read-only and safe for concurrent use.
type Corpus struct {
	k          int
	names      []string
	seqs       []dna.Seq
	postings   [][]int32
	totalBases int64
	print      string
}

// K returns the index's k-mer length.
func (c *Corpus) K() int { return c.k }

// Len returns the number of reference sequences.
func (c *Corpus) Len() int { return len(c.seqs) }

// TotalBases returns the summed length of every reference sequence —
// the denominator of the prefilter's cell-savings accounting.
func (c *Corpus) TotalBases() int64 { return c.totalBases }

// Fingerprint returns the content hash recorded in the manifest.
func (c *Corpus) Fingerprint() string { return c.print }

// Name returns the name of sequence id.
func (c *Corpus) Name(id int) string { return c.names[id] }

// Seq returns sequence id. The slice is shared; callers must not mutate.
func (c *Corpus) Seq(id int) dna.Seq { return c.seqs[id] }

// SeqLen returns the length of sequence id.
func (c *Corpus) SeqLen(id int) int { return len(c.seqs[id]) }

// Builder accumulates reference sequences and commits them as an index
// directory. Add every sequence, then Commit exactly once.
type Builder struct {
	dir   string
	opts  IndexOptions
	names []string
	seqs  []dna.Seq
	err   error
}

// NewBuilder starts an index build into dir (created if missing; must
// not already hold a manifest).
func NewBuilder(dir string, opts IndexOptions) (*Builder, error) {
	if opts.K == 0 {
		opts.K = DefaultK
	}
	if opts.K < minK || opts.K > maxK {
		return nil, fmt.Errorf("corpus: k must be %d..%d, got %d", minK, maxK, opts.K)
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err == nil {
		return nil, fmt.Errorf("corpus: %s already holds an index", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("corpus: create dir: %w", err)
	}
	return &Builder{dir: dir, opts: opts}, nil
}

// Add ingests one reference sequence. Errors are sticky and re-reported
// by Commit, so bulk loops may defer checking.
func (b *Builder) Add(name string, seq dna.Seq) error {
	if b.err != nil {
		return b.err
	}
	switch {
	case len(seq) == 0:
		b.err = fmt.Errorf("corpus: sequence %q is empty", name)
	case len(seq) > maxSeqLen:
		b.err = fmt.Errorf("corpus: sequence %q has %d bases, cap %d", name, len(seq), maxSeqLen)
	default:
		b.names = append(b.names, name)
		b.seqs = append(b.seqs, seq)
	}
	return b.err
}

// Commit writes the segments and finally the manifest (the commit
// point), fsyncing files and directory so a crash mid-build never
// yields a half-index that Open accepts. The returned Corpus holds the
// posting lists Open would build from the same sequences.
func (b *Builder) Commit() (*Corpus, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.seqs) == 0 {
		return nil, errors.New("corpus: no sequences added")
	}

	// Segments, one file per occupied length bucket, records in ID order.
	byBucket := map[int][]int{}
	var totalBases int64
	for id, s := range b.seqs {
		bk := bucketFor(len(s))
		byBucket[bk] = append(byBucket[bk], id)
		totalBases += int64(len(s))
	}
	buckets := make([]int, 0, len(byBucket))
	for bk := range byBucket {
		buckets = append(buckets, bk)
	}
	sort.Ints(buckets)
	for _, bk := range buckets {
		if err := b.writeSegment(bk, byBucket[bk]); err != nil {
			return nil, err
		}
	}

	postings, err := buildPostings(b.opts.K, b.seqs)
	if err != nil {
		return nil, err
	}

	man := manifest{
		Schema:      ManifestSchema,
		K:           b.opts.K,
		Seqs:        len(b.seqs),
		Buckets:     buckets,
		MaxSeqLen:   maxSeqLen,
		TotalBases:  totalBases,
		Fingerprint: fingerprint(b.names, b.seqs),
	}
	if err := writeFileSync(filepath.Join(b.dir, "manifest.json"), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(man)
	}); err != nil {
		return nil, err
	}
	if err := fsyncDir(b.dir); err != nil {
		return nil, err
	}
	return &Corpus{
		k:          b.opts.K,
		names:      b.names,
		seqs:       b.seqs,
		postings:   postings,
		totalBases: totalBases,
		print:      man.Fingerprint,
	}, nil
}

// writeSegment writes one bucket's sequences as CRC lines.
func (b *Builder) writeSegment(bucket int, ids []int) error {
	return writeFileSync(filepath.Join(b.dir, segmentFile(bucket)), func(w io.Writer) error {
		for _, id := range ids {
			payload, err := json.Marshal(seqRecord{ID: id, Name: b.names[id], Seq: b.seqs[id].String()})
			if err != nil {
				return err
			}
			if _, err := w.Write(encodeLine(payload)); err != nil {
				return err
			}
		}
		return nil
	})
}

// buildPostings computes the dense posting table: postings[code] lists
// the ascending IDs of sequences containing k-mer code. A stamp array
// deduplicates within one sequence, so each ID appears at most once per
// list no matter how often the k-mer repeats.
func buildPostings(k int, seqs []dna.Seq) ([][]int32, error) {
	table := make([][]int32, 1<<(2*uint(k)))
	stamp := make([]int32, len(table))
	for i := range stamp {
		stamp[i] = -1
	}
	for id, s := range seqs {
		if id > 1<<30 {
			return nil, fmt.Errorf("corpus: too many sequences (%d)", id)
		}
		forEachKmer(k, s, func(code int) {
			if stamp[code] != int32(id) {
				stamp[code] = int32(id)
				table[code] = append(table[code], int32(id))
			}
		})
	}
	return table, nil
}

// forEachKmer calls fn with the rolling 2-bit code of every k-mer of s.
func forEachKmer(k int, s dna.Seq, fn func(code int)) {
	if len(s) < k {
		return
	}
	mask := 1<<(2*uint(k)) - 1
	code := 0
	for i, b := range s {
		code = (code<<2 | int(b&3)) & mask
		if i >= k-1 {
			fn(code)
		}
	}
}

// writeFileSync writes a file through fill and fsyncs it before close.
func writeFileSync(path string, fill func(io.Writer) error) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("corpus: create %s: %w", filepath.Base(path), err)
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	err = fill(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("corpus: write %s: %w", filepath.Base(path), err)
	}
	return nil
}

// fsyncDir makes fresh directory entries durable (the jobstore idiom:
// file fsync alone does not persist the entry of a newly created file).
func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Build is the convenience wrapper: ingest records and commit in one call.
func Build(dir string, recs []dna.Record, opts IndexOptions) (*Corpus, error) {
	b, err := NewBuilder(dir, opts)
	if err != nil {
		return nil, err
	}
	for _, r := range recs {
		if err := b.Add(r.Name, r.Seq); err != nil {
			return nil, err
		}
	}
	return b.Commit()
}

// Open loads an index directory: the manifest and every segment,
// verifying CRCs line by line, the ID space (dense, no gaps, no
// duplicates) and finally the fingerprint against the manifest. Any
// mismatch fails with a typed error wrapping ErrCorrupt rather than
// serving a silently wrong corpus. Open then builds the posting lists
// from the verified sequences. It reads no other file, so the stored
// posting lists an older index also holds are ignored.
func Open(dir string) (*Corpus, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, fmt.Errorf("corpus: read manifest: %w", err)
	}
	var man manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&man); err != nil {
		return nil, fmt.Errorf("%w: bad manifest: %v", ErrCorrupt, err)
	}
	if man.Schema != ManifestSchema {
		return nil, fmt.Errorf("corpus: manifest schema %q, want %q", man.Schema, ManifestSchema)
	}
	if man.K < minK || man.K > maxK || man.Seqs <= 0 {
		return nil, fmt.Errorf("%w: manifest k=%d seqs=%d out of range", ErrCorrupt, man.K, man.Seqs)
	}
	// The manifest carries no CRC, so bound its counts by the segments on
	// disk before sizing anything by them: every sequence holds a base, and
	// every base takes at least a byte. A missing segment is damage, not a
	// missing index, so os.ErrNotExist stays out of the chain.
	var segBytes int64
	for _, bk := range man.Buckets {
		st, err := os.Stat(filepath.Join(dir, segmentFile(bk)))
		if err != nil {
			return nil, fmt.Errorf("%w: segment of bucket %d: %v", ErrCorrupt, bk, err)
		}
		segBytes += st.Size()
	}
	if int64(man.Seqs) > man.TotalBases || man.TotalBases > segBytes {
		return nil, fmt.Errorf("%w: manifest says %d sequences of %d bases in %d bytes of segments",
			ErrCorrupt, man.Seqs, man.TotalBases, segBytes)
	}

	c := &Corpus{
		k:     man.K,
		names: make([]string, man.Seqs),
		seqs:  make([]dna.Seq, man.Seqs),
		print: man.Fingerprint,
	}
	seen := 0
	for _, bk := range man.Buckets {
		err := readLines(filepath.Join(dir, segmentFile(bk)), func(payload []byte) error {
			var rec seqRecord
			d := json.NewDecoder(bytes.NewReader(payload))
			d.DisallowUnknownFields()
			if err := d.Decode(&rec); err != nil {
				return fmt.Errorf("%w: bad sequence record: %v", ErrCorrupt, err)
			}
			if rec.ID < 0 || rec.ID >= man.Seqs {
				return fmt.Errorf("%w: sequence ID %d out of range [0,%d)", ErrCorrupt, rec.ID, man.Seqs)
			}
			if c.seqs[rec.ID] != nil {
				return fmt.Errorf("%w: duplicate sequence ID %d", ErrCorrupt, rec.ID)
			}
			s, err := dna.Parse(rec.Seq)
			if err != nil {
				return fmt.Errorf("%w: sequence %d: %v", ErrCorrupt, rec.ID, err)
			}
			if len(s) == 0 || len(s) > bk {
				return fmt.Errorf("%w: sequence %d has %d bases in bucket %d", ErrCorrupt, rec.ID, len(s), bk)
			}
			c.names[rec.ID] = rec.Name
			c.seqs[rec.ID] = s
			c.totalBases += int64(len(s))
			seen++
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if seen != man.Seqs {
		return nil, fmt.Errorf("%w: manifest says %d sequences, segments hold %d", ErrCorrupt, man.Seqs, seen)
	}
	if man.TotalBases != c.totalBases {
		return nil, fmt.Errorf("%w: manifest says %d bases, segments hold %d", ErrCorrupt, man.TotalBases, c.totalBases)
	}
	if got := fingerprint(c.names, c.seqs); got != man.Fingerprint {
		return nil, fmt.Errorf("%w: fingerprint %s, manifest says %s", ErrCorrupt, got, man.Fingerprint)
	}

	if c.postings, err = buildPostings(c.k, c.seqs); err != nil {
		return nil, err
	}
	return c, nil
}

// readLines streams a CRC-lines file through fn, payload by payload.
func readLines(path string, fn func(payload []byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("corpus: open %s: %w", filepath.Base(path), err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	for {
		line, err := r.ReadBytes('\n')
		if len(line) == 0 && err == io.EOF {
			return nil
		}
		if err == io.EOF {
			return fmt.Errorf("%w: torn line at end of %s", ErrCorrupt, filepath.Base(path))
		}
		if err != nil {
			return fmt.Errorf("corpus: read %s: %w", filepath.Base(path), err)
		}
		payload, err := decodeLine(bytes.TrimSuffix(line, []byte("\n")))
		if err != nil {
			return fmt.Errorf("%s: %w", filepath.Base(path), err)
		}
		if err := fn(payload); err != nil {
			return err
		}
	}
}
