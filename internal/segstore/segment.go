package segstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"runtime"
	"sync"

	"streamsum/internal/featidx"
	"streamsum/internal/geom"
	"streamsum/internal/rtree"
	"streamsum/internal/sgs"
)

var (
	// logMagic is the archive.Appender log magic: a v1/v2 segment's record
	// region is byte-identical to an append log, so a damaged legacy
	// segment is still salvageable with LoadAppended. v3 segments use
	// segMagicV3 (format_v3.go) and give up that property for the
	// columnar layout.
	logMagic = [8]byte{'S', 'G', 'S', 'L', 'O', 'G', '1', '\n'}
	// footerMagicV1 footers predate zone filters; their zones are derived
	// from the records at open time.
	footerMagicV1 = [8]byte{'S', 'G', 'S', 'F', 'T', 'R', '1', '\n'}
	// footerMagicV2 footers carry the segment's filter zone — the
	// union MBR and per-feature min/max bounds — after the record block.
	footerMagicV2 = [8]byte{'S', 'G', 'S', 'F', 'T', 'R', '2', '\n'}
	endMagic      = [8]byte{'S', 'G', 'S', 'E', 'N', 'D', '1', '\n'}
)

const trailerSize = 8 + 4 + 4 + 8 // footerOff u64 | footerLen u32 | crc u32 | end magic

// ErrBadSegment is returned when a segment file fails validation. A
// truncated or otherwise damaged segment is rejected whole — the store
// never serves a torn segment.
var ErrBadSegment = errors.New("segstore: bad segment file")

// FlushEntry is one summary handed to the store for demotion: the
// encoded blob plus the index features the columnar region records, so
// the store never needs to decode what it writes.
type FlushEntry struct {
	ID   int64
	Blob []byte
	MBR  geom.MBR
	Feat [4]float64
}

// Record is one summary as indexed by a segment: its id, the byte range
// of its encoded blob within the segment file, and the filter-phase
// features (bounding rectangle and non-locational feature vector).
type Record struct {
	ID   int64
	Off  int64 // absolute blob offset within the file
	Len  uint32
	MBR  geom.MBR
	Feat [4]float64
}

// zone is a segment's filter zone: the union of its records' MBRs and
// the per-dimension min/max of their feature vectors. A query range that
// cannot intersect the zone cannot match any record, so the filter phase
// skips the whole segment without touching its columns or indices.
type zone struct {
	mbr              geom.MBR
	featMin, featMax [4]float64
}

// zoneOf computes the filter zone of a record set.
func zoneOf(dim int, recs []Record) zone {
	z := zone{mbr: geom.EmptyMBR(dim)}
	for d := 0; d < 4; d++ {
		z.featMin[d] = math.Inf(1)
		z.featMax[d] = math.Inf(-1)
	}
	for _, r := range recs {
		z.mbr.Extend(r.MBR)
		for d := 0; d < 4; d++ {
			z.featMin[d] = math.Min(z.featMin[d], r.Feat[d])
			z.featMax[d] = math.Max(z.featMax[d], r.Feat[d])
		}
	}
	return z
}

// Segment is one immutable on-disk segment, opened for reading. All
// methods are safe for concurrent use: the in-memory probe structures
// are built once at open time and never mutated, and blob reads go
// through the read-only mapping (or pread on the fallback path).
type Segment struct {
	path    string
	f       *os.File
	version int // 1, 2 or 3
	dim     int
	recs    []Record
	byID    map[int64]int
	payload int // sum of record blob lengths, cached at open
	zone    zone

	// v1/v2 probe structures (nil for v3 — the columnar scans replace
	// them).
	loc  *rtree.Tree
	feat *featidx.Index

	// v3 columnar state. col is the raw columnar region: a sub-slice of
	// mapped when the file is mmap'd, a heap copy read once at open on
	// the pread fallback. mapped is the whole-file read-only mapping
	// (nil on the fallback), which also serves zero-copy blob reads.
	col    []byte
	mapped []byte
	count  int
	lay    colLayout
}

// writeSegment writes a complete segment file at path in the current
// (v3, columnar) format. No atomicity — the caller writes to a temp name
// and renames. Entries must be in archive (FIFO) order and share the
// store's dimensionality.
func writeSegment(path string, dim int, entries []FlushEntry) error {
	return writeSegmentV3(path, dim, entries)
}

// writeSegmentV2 writes the legacy v2 format (Appender-framed records +
// serialized-index footer). Kept for mixed-format tests; the store only
// ever writes v3.
func writeSegmentV2(path string, dim int, entries []FlushEntry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<16)
	if _, err := w.Write(logMagic[:]); err != nil {
		return err
	}
	off := int64(len(logMagic))
	recs := make([]Record, 0, len(entries))
	var n4 [4]byte
	for _, e := range entries {
		if e.MBR.Dim() != dim {
			return fmt.Errorf("segstore: entry %d dimension %d != store dimension %d", e.ID, e.MBR.Dim(), dim)
		}
		binary.LittleEndian.PutUint32(n4[:], uint32(len(e.Blob)))
		if _, err := w.Write(n4[:]); err != nil {
			return err
		}
		if _, err := w.Write(e.Blob); err != nil {
			return err
		}
		recs = append(recs, Record{ID: e.ID, Off: off + 4, Len: uint32(len(e.Blob)), MBR: e.MBR, Feat: e.Feat})
		off += 4 + int64(len(e.Blob))
	}
	footer := encodeFooterV2(dim, recs)
	if _, err := w.Write(footer); err != nil {
		return err
	}
	var tr [trailerSize]byte
	binary.LittleEndian.PutUint64(tr[0:], uint64(off))
	binary.LittleEndian.PutUint32(tr[8:], uint32(len(footer)))
	binary.LittleEndian.PutUint32(tr[12:], crc32.ChecksumIEEE(footer))
	copy(tr[16:], endMagic[:])
	if _, err := w.Write(tr[:]); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Sync()
}

func encodeFooterV2(dim int, recs []Record) []byte {
	buf := make([]byte, 0, len(footerMagicV2)+5+len(recs)*(8+8+4+dim*16+32)+dim*16+64)
	buf = append(buf, footerMagicV2[:]...)
	buf = append(buf, byte(dim))
	var n4 [4]byte
	binary.LittleEndian.PutUint32(n4[:], uint32(len(recs)))
	buf = append(buf, n4[:]...)
	var n8 [8]byte
	f64 := func(v float64) {
		binary.LittleEndian.PutUint64(n8[:], math.Float64bits(v))
		buf = append(buf, n8[:]...)
	}
	for _, r := range recs {
		binary.LittleEndian.PutUint64(n8[:], uint64(r.ID))
		buf = append(buf, n8[:]...)
		binary.LittleEndian.PutUint64(n8[:], uint64(r.Off))
		buf = append(buf, n8[:]...)
		binary.LittleEndian.PutUint32(n4[:], r.Len)
		buf = append(buf, n4[:]...)
		for d := 0; d < dim; d++ {
			f64(r.MBR.Min[d])
		}
		for d := 0; d < dim; d++ {
			f64(r.MBR.Max[d])
		}
		for d := 0; d < 4; d++ {
			f64(r.Feat[d])
		}
	}
	// v2 zone block: union MBR + per-feature min/max, so the filter phase
	// can skip the whole segment without reading the record block's
	// indices when the query range cannot intersect.
	return appendZone(buf, dim, zoneOf(dim, recs))
}

// OpenSegment validates and opens a segment file (any format version).
// Validation is all-or-nothing: end magic, trailer geometry, footer CRC,
// header magic, the columnar-region CRC (v3) and every record's byte
// range must check out, so a file truncated at any byte offset is
// rejected with ErrBadSegment rather than partially loaded.
func OpenSegment(path string) (*Segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	seg, err := openSegmentFile(path, f)
	if err != nil {
		f.Close()
		return nil, err
	}
	// Keep pinned Views readable after a compaction unlinks the file: the
	// mapping and handle are released when the last reference drops, or
	// at Store.Close.
	runtime.SetFinalizer(seg, func(s *Segment) { s.release() })
	seg.countOpen()
	return seg, nil
}

func openSegmentFile(path string, f *os.File) (*Segment, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < int64(len(logMagic))+trailerSize {
		return nil, fmt.Errorf("%w: %s: too short (%d bytes)", ErrBadSegment, path, size)
	}
	var tr [trailerSize]byte
	if _, err := f.ReadAt(tr[:], size-trailerSize); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrBadSegment, path, err)
	}
	if [8]byte(tr[16:24]) != endMagic {
		return nil, fmt.Errorf("%w: %s: bad end magic", ErrBadSegment, path)
	}
	footerOff := int64(binary.LittleEndian.Uint64(tr[0:]))
	footerLen := int64(binary.LittleEndian.Uint32(tr[8:]))
	crc := binary.LittleEndian.Uint32(tr[12:])
	if footerOff < int64(len(logMagic)) || footerOff+footerLen+trailerSize != size {
		return nil, fmt.Errorf("%w: %s: trailer geometry", ErrBadSegment, path)
	}
	footer := make([]byte, footerLen)
	if _, err := io.ReadFull(io.NewSectionReader(f, footerOff, footerLen), footer); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrBadSegment, path, err)
	}
	if crc32.ChecksumIEEE(footer) != crc {
		return nil, fmt.Errorf("%w: %s: footer CRC mismatch", ErrBadSegment, path)
	}
	if len(footer) >= 8 && [8]byte(footer[:8]) == footerMagicV3 {
		return openSegmentV3(path, f, size, footerOff, footer)
	}
	return openSegmentLegacy(path, f, footerOff, footer)
}

// openSegmentLegacy opens a v1/v2 segment: the footer is the serialized
// index, decoded into records and in-memory R-tree/feature-grid probe
// structures.
func openSegmentLegacy(path string, f *os.File, footerOff int64, footer []byte) (*Segment, error) {
	var head [8]byte
	if _, err := f.ReadAt(head[:], 0); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrBadSegment, path, err)
	}
	if head != logMagic {
		return nil, fmt.Errorf("%w: %s: bad header magic", ErrBadSegment, path)
	}
	version, dim, recs, z, err := decodeFooterLegacy(footer)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrBadSegment, path, err)
	}
	seg := &Segment{
		path: path, f: f, version: version, dim: dim, recs: recs, zone: z,
		byID: make(map[int64]int, len(recs)),
		loc:  rtree.New(dim),
		feat: featidx.New(),
	}
	end := int64(len(logMagic))
	for i, r := range recs {
		if r.Off != end+4 || r.Off+int64(r.Len) > footerOff {
			return nil, fmt.Errorf("%w: %s: record %d byte range", ErrBadSegment, path, i)
		}
		end = r.Off + int64(r.Len)
		if _, dup := seg.byID[r.ID]; dup {
			return nil, fmt.Errorf("%w: %s: duplicate id %d", ErrBadSegment, path, r.ID)
		}
		seg.byID[r.ID] = i
		seg.payload += int(r.Len)
		if err := seg.loc.Insert(r.ID, r.MBR); err != nil {
			return nil, fmt.Errorf("%w: %s: record %d: %v", ErrBadSegment, path, i, err)
		}
		seg.feat.Insert(r.ID, r.Feat)
	}
	if end != footerOff {
		return nil, fmt.Errorf("%w: %s: record region does not meet footer", ErrBadSegment, path)
	}
	return seg, nil
}

func decodeFooterLegacy(b []byte) (version, dim int, recs []Record, z zone, err error) {
	if len(b) < len(footerMagicV2)+5 {
		return 0, 0, nil, z, fmt.Errorf("bad footer magic")
	}
	version = 2
	if [8]byte(b[:8]) != footerMagicV2 {
		if [8]byte(b[:8]) != footerMagicV1 {
			return 0, 0, nil, z, fmt.Errorf("bad footer magic")
		}
		version = 1
	}
	dim = int(b[8])
	if dim < 1 || dim > 8 {
		return 0, 0, nil, z, fmt.Errorf("footer dimension %d", dim)
	}
	count := binary.LittleEndian.Uint32(b[9:])
	recSize := 8 + 8 + 4 + dim*16 + 32
	zs := 0
	if version == 2 {
		zs = zoneSize(dim)
	}
	body := b[13:]
	if uint64(len(body)) != uint64(count)*uint64(recSize)+uint64(zs) {
		return 0, 0, nil, z, fmt.Errorf("footer size %d != %d records", len(body), count)
	}
	recs = make([]Record, count)
	for i := range recs {
		p := body[i*recSize:]
		r := &recs[i]
		r.ID = int64(binary.LittleEndian.Uint64(p[0:]))
		r.Off = int64(binary.LittleEndian.Uint64(p[8:]))
		r.Len = binary.LittleEndian.Uint32(p[16:])
		p = p[20:]
		r.MBR = geom.MBR{Min: make(geom.Point, dim), Max: make(geom.Point, dim)}
		for d := 0; d < dim; d++ {
			r.MBR.Min[d] = math.Float64frombits(binary.LittleEndian.Uint64(p[d*8:]))
		}
		p = p[dim*8:]
		for d := 0; d < dim; d++ {
			r.MBR.Max[d] = math.Float64frombits(binary.LittleEndian.Uint64(p[d*8:]))
		}
		p = p[dim*8:]
		for d := 0; d < 4; d++ {
			r.Feat[d] = math.Float64frombits(binary.LittleEndian.Uint64(p[d*8:]))
		}
		if r.MBR.IsEmpty() {
			return 0, 0, nil, z, fmt.Errorf("record %d has an empty MBR", i)
		}
	}
	if version == 2 {
		var rest []byte
		z, rest, err = decodeZone(body[int(count)*recSize:], dim)
		if err != nil || len(rest) != 0 {
			return 0, 0, nil, z, fmt.Errorf("zone block")
		}
	} else {
		// v1 footers predate the zone block; derive it from the records.
		z = zoneOf(dim, recs)
	}
	return version, dim, recs, z, nil
}

// Path returns the segment's file path.
func (s *Segment) Path() string { return s.path }

// Format returns the segment's on-disk format version (1, 2 or 3).
func (s *Segment) Format() int { return s.version }

// Dim returns the data-space dimensionality.
func (s *Segment) Dim() int { return s.dim }

// Len returns the number of records in the segment (tombstones are a
// store-level concept; the segment itself is immutable).
func (s *Segment) Len() int { return len(s.recs) }

// Bytes returns the total encoded size of the segment's record blobs.
func (s *Segment) Bytes() int { return s.payload }

// Regions returns the byte sizes of the segment's columnar and blob
// regions. For v1/v2 segments the columnar size is the serialized-index
// footer (the closest analogue) and the blob size is the record region's
// payload.
func (s *Segment) Regions() (colBytes, blobBytes int) {
	if s.version == 3 {
		return s.lay.size, s.payload
	}
	return len(encodeFooterV2(s.dim, s.recs)), s.payload
}

// Mapped reports whether the segment serves reads from a memory mapping
// (false on the pread fallback path and for v1/v2 segments).
func (s *Segment) Mapped() bool { return s.mapped != nil }

// Records returns the segment's records in archive (FIFO) order. The
// returned slice is shared and must not be modified.
func (s *Segment) Records() []Record { return s.recs }

// Get returns the record with the given id.
func (s *Segment) Get(id int64) (Record, bool) {
	i, ok := s.byID[id]
	if !ok {
		return Record{}, false
	}
	return s.recs[i], true
}

// Zone returns the segment's filter zone: the union MBR of its records
// and the per-dimension min/max of their feature vectors (from the v2/v3
// footer, or derived at open for v1 segments).
func (s *Segment) Zone() (mbr geom.MBR, featMin, featMax [4]float64) {
	return s.zone.mbr, s.zone.featMin, s.zone.featMax
}

// GatedSearchLocation visits records whose MBR intersects the query box
// AND whose feature vector passes gate (nil means no gate). It returns
// the number of intersecting records regardless of the gate, so callers
// can report index-candidate counts, and whether the segment's zone
// excluded the query box (the scan was skipped without touching the
// columns or the index). On v3 segments the intersection test and the
// gate run directly over the columnar region — zero allocation, no
// per-record syscall; v1/v2 segments probe their R-tree and read the
// gate input from the decoded records. Iteration stops early if visit
// returns false (the returned count is then partial).
func (s *Segment) GatedSearchLocation(q geom.MBR, gate func([4]float64) bool, visit func(Record) bool) (probed int, zoneSkipped bool) {
	if !s.zone.mbr.Intersects(q) {
		metricZoneSkips.Inc()
		return 0, true
	}
	metricScans.Inc()
	if s.version == 3 {
		return s.scanLocationV3(q, gate, visit), false
	}
	s.loc.SearchIntersect(q, func(it rtree.Item) bool {
		probed++
		r := s.recs[s.byID[it.ID]]
		if gate != nil && !gate(r.Feat) {
			return true
		}
		return visit(r)
	})
	return probed, false
}

// GatedSearchFeatures visits records whose feature vector lies inside
// the inclusive hyper-rectangle [lo, hi] AND passes gate (nil means no
// gate); it returns the number of in-range records regardless of the
// gate and whether the segment's feature zone excluded the range. On v3
// segments this is the fused filter+gate pass: one sequential scan of
// the feats column from the mapping, zero allocation. Iteration stops
// early if visit returns false (the returned count is then partial).
func (s *Segment) GatedSearchFeatures(lo, hi [4]float64, gate func([4]float64) bool, visit func(Record) bool) (probed int, zoneSkipped bool) {
	for d := 0; d < 4; d++ {
		if hi[d] < s.zone.featMin[d] || lo[d] > s.zone.featMax[d] {
			metricZoneSkips.Inc()
			return 0, true
		}
	}
	metricScans.Inc()
	if s.version == 3 {
		return s.scanFeaturesV3(lo, hi, gate, visit), false
	}
	s.feat.Search(lo, hi, func(fe featidx.Entry) bool {
		probed++
		r := s.recs[s.byID[fe.ID]]
		if gate != nil && !gate(r.Feat) {
			return true
		}
		return visit(r)
	})
	return probed, false
}

// blobPool recycles pread scratch buffers so the fallback refine path
// does not allocate a fresh blob per Load (the mmap path reads straight
// from the mapping and never needs one).
var blobPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4096); return &b },
}

// Load reads and decodes one record's summary. On the mmap path the blob
// is decoded directly from the mapping (zero copy, no syscall); on the
// pread fallback it is read into a pooled scratch buffer, so either way
// the only allocation is the decoded summary itself. Safe for any number
// of concurrent callers.
func (s *Segment) Load(r Record) (*sgs.Summary, error) {
	if s.mapped != nil {
		metricLoadsMmap.Inc()
		sum, err := sgs.Unmarshal(s.mapped[r.Off : r.Off+int64(r.Len)])
		if err != nil {
			return nil, fmt.Errorf("segstore: %s: record %d: %w", s.path, r.ID, err)
		}
		return sum, nil
	}
	metricLoadsPread.Inc()
	bp := blobPool.Get().(*[]byte)
	defer blobPool.Put(bp)
	if cap(*bp) < int(r.Len) {
		*bp = make([]byte, r.Len)
	}
	blob := (*bp)[:r.Len]
	if _, err := s.f.ReadAt(blob, r.Off); err != nil {
		return nil, fmt.Errorf("segstore: %s: read record %d: %w", s.path, r.ID, err)
	}
	sum, err := sgs.Unmarshal(blob)
	if err != nil {
		return nil, fmt.Errorf("segstore: %s: record %d: %w", s.path, r.ID, err)
	}
	return sum, nil
}

// LoadBlob reads one record's raw encoded blob. On the mmap path the
// returned slice is a view into the mapping: it must not be modified and
// is valid only while the segment is reachable; copy it to retain it
// past the segment's lifetime.
func (s *Segment) LoadBlob(r Record) ([]byte, error) {
	if s.mapped != nil {
		return s.mapped[r.Off : r.Off+int64(r.Len)], nil
	}
	blob := make([]byte, r.Len)
	if _, err := s.f.ReadAt(blob, r.Off); err != nil {
		return nil, fmt.Errorf("segstore: %s: read record %d: %w", s.path, r.ID, err)
	}
	return blob, nil
}

// release unmaps and closes the segment's file. Idempotent; called by
// the open-failure paths, close, and the finalizer.
func (s *Segment) release() {
	if s.mapped != nil {
		_ = munmapFile(s.mapped)
		s.mapped = nil
		s.col = nil
	}
	if s.f != nil {
		_ = s.f.Close()
		s.f = nil
	}
}

func (s *Segment) close() error {
	runtime.SetFinalizer(s, nil)
	if s.mapped != nil {
		_ = munmapFile(s.mapped)
		s.mapped = nil
		s.col = nil
	}
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}
