// Package corpus turns the repository's pair-scoring engines into a
// database-search service: a reference corpus of sequences is ingested
// once into an indexed on-disk store, and each query then runs a
// one-stage funnel — a k-mer posting-list prefilter that emits candidate
// IDs, then exact Smith-Waterman scoring of only those candidates —
// producing a ranked top-K hit list with score statistics.
//
// # On-disk layout
//
// An index directory holds two kinds of file:
//
//   - seqs-<bucket>.log — the sequences, segmented by length bucket (the
//     smallest power of two ≥ the sequence length, minimum 16), one
//     record per line carrying the sequence's corpus ID, name and bases,
//     in the jobstore WAL idiom of CRC-checked JSON lines
//     (crc32hex<space>payload\n, CRC-32 IEEE over the payload bytes).
//   - manifest.json — the commit point: schema tag, k, sequence count,
//     bucket list and the corpus fingerprint (CRC-32 over every name and
//     sequence in ID order). A directory without a readable manifest is
//     not a corpus; Open re-derives the fingerprint from the segments
//     and refuses a corpus whose content does not match its manifest.
//
// The k-mer posting lists (for every k-mer in the corpus, the ascending
// IDs of the sequences that contain it) are not stored: Open builds them
// from the sequences it has just verified. An index written by an older
// release also holds the lists in a file of their own; Open ignores it.
//
// # Query path
//
// The prefilter counts, per corpus sequence, how many of the query's
// distinct k-mers occur in it (one posting-list walk per query k-mer)
// and keeps sequences reaching MinKmerHits. It is a heuristic: a
// sequence that shares fewer k-mers can still outscore a candidate, so
// the filtered top-K equals a scan-all top-K only when true homologs
// dominate the ranking. The candidates reach the alignsvc.Backend (in
// swaserver, the alignsvc.Service itself, with its engine slots and
// fallback) for exact SW scoring into a bounded min-heap of the K best
// hits. The
// prefilter is deterministic in the corpus and query, which is what lets
// a crashed search job recompute its candidate set on resume and skip
// exactly the chunks it already checkpointed.
package corpus
