package durable

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
)

func testRecords() []Record {
	return []Record{
		{Kind: KindInsert, Attr: "a", A: 42},
		{Kind: KindDelete, Attr: "bb", A: -7},
		{Kind: KindUpdate, Attr: "price", A: 10, B: 20},
	}
}

func TestWALRoundTrip(t *testing.T) {
	fs := NewFaultFS()
	l, err := CreateLog(fs, WALName(0, 0), 0, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	want := testRecords()
	for i, rec := range want {
		seq, err := l.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
		if err := l.Commit(seq); err != nil {
			t.Fatal(err)
		}
	}
	if l.Records() != 3 {
		t.Fatalf("Records() = %d, want 3", l.Records())
	}
	fs.Crash() // only synced bytes survive
	data, err := fs.ReadFile(WALName(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	got, torn := ReadLog(data)
	if torn {
		t.Fatal("unexpected torn tail")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay = %+v, want %+v", got, want)
	}
}

func TestWALGroupCommit(t *testing.T) {
	fs := NewFaultFS()
	l, err := CreateLog(fs, WALName(0, 0), 10, SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	for _, rec := range testRecords() {
		seq, err := l.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
	}
	// One commit of the last seq must cover the earlier ones too.
	if err := l.Commit(seqs[len(seqs)-1]); err != nil {
		t.Fatal(err)
	}
	syncsBefore := fs.Ops()
	for _, seq := range seqs {
		if err := l.Commit(seq); err != nil {
			t.Fatal(err)
		}
	}
	if fs.Ops() != syncsBefore {
		t.Fatal("covered commits issued extra filesystem operations")
	}
	fs.Crash()
	data, _ := fs.ReadFile(WALName(0, 0))
	got, torn := ReadLog(data)
	if torn || len(got) != 3 {
		t.Fatalf("replay got %d records (torn=%v), want 3", len(got), torn)
	}
}

func TestWALTornTailTruncates(t *testing.T) {
	fs := NewFaultFS()
	l, err := CreateLog(fs, WALName(0, 0), 0, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords()
	for _, rec := range recs[:2] {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	// Tear the third record's write: half the frame becomes durable.
	fs.KillAt(1, true)
	if _, err := l.Append(recs[2]); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("append after kill = %v, want injected crash", err)
	}
	fs.Crash()
	data, err := fs.ReadFile(WALName(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	got, torn := ReadLog(data)
	if !torn {
		t.Fatal("torn tail not detected")
	}
	if !reflect.DeepEqual(got, recs[:2]) {
		t.Fatalf("replay = %+v, want first two records", got)
	}
}

// TestWALOversizedLengthIsTorn: a frame length field within 8 of the
// uint32 maximum must read as a torn tail, not wrap the bounds check
// and panic.
func TestWALOversizedLengthIsTorn(t *testing.T) {
	for n := uint64(0xFFFFFFF8); n <= 0xFFFFFFFF; n++ {
		data := make([]byte, 16)
		binary.LittleEndian.PutUint32(data, uint32(n))
		recs, torn := ReadLog(data)
		if !torn || len(recs) != 0 {
			t.Errorf("length %#x: ReadLog = %d records, torn %v; want 0, true", n, len(recs), torn)
		}
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	c := ColumnData{
		Name:  "price",
		Base:  []int64{5, -3, 99, 0},
		Tails: []int64{7, 8},
		Dead:  []uint32{1, 5},
	}
	got, err := DecodeSegment(EncodeSegment(c))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, c) {
		t.Fatalf("decoded = %+v, want %+v", got, c)
	}
	if got.NextRow() != 6 {
		t.Fatalf("NextRow = %d, want 6", got.NextRow())
	}
	// Any flipped byte must fail the checksum.
	enc := EncodeSegment(c)
	enc[len(segMagic)+10] ^= 0x40
	if _, err := DecodeSegment(enc); err == nil {
		t.Fatal("corrupt segment decoded without error")
	}
}

func TestStatePerSectionDegradation(t *testing.T) {
	states := []IndexState{
		{Attr: "a", Kind: IndexCracker, Vals: []int64{1, 2, 3}, Rows: []uint32{0, 1, 2},
			HasRows: true, Keys: []int64{-1 << 62, 2}, Starts: []uint32{0, 1},
			Accesses: 9, Hits: 4, StatsState: 2},
		{Attr: "b", Kind: IndexSorted, Vals: []int64{4, 5, 6}},
	}
	enc := EncodeState(states)
	got, dropped, err := DecodeState(enc)
	if err != nil || dropped != 0 {
		t.Fatalf("clean decode: dropped=%d err=%v", dropped, err)
	}
	if !reflect.DeepEqual(got, states) {
		t.Fatalf("decoded = %+v, want %+v", got, states)
	}
	// Corrupt a byte inside the first section: only that index drops.
	enc = EncodeState(states)
	enc[len(stateMagic)+4+8+4] ^= 0x01
	got, dropped, err = DecodeState(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 || len(got) != 1 || got[0].Attr != "b" {
		t.Fatalf("degraded decode: dropped=%d survivors=%+v", dropped, got)
	}
	// A corrupt header fails the whole file.
	enc[0] ^= 0xff
	if _, _, err := DecodeState(enc); err == nil {
		t.Fatal("corrupt header decoded without error")
	}
}

func snapshotAt(t *testing.T, fs FS, gen uint64, vals []int64) {
	t.Helper()
	m := &Manifest{Generation: gen, Mode: "test"}
	cols := []ColumnData{{Name: "a", Base: vals}}
	if err := WriteSnapshot(fs, m, cols, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverPicksNewestValidGeneration(t *testing.T) {
	fs := NewFaultFS()
	snapshotAt(t, fs, 1, []int64{10, 20})
	snapshotAt(t, fs, 2, []int64{10, 20, 30})
	rec, err := Recover(fs)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Gen != 2 || rec.Fallbacks != 0 || len(rec.Columns) != 1 {
		t.Fatalf("rec = %+v", rec)
	}
	if !reflect.DeepEqual(rec.Columns[0].Base, []int64{10, 20, 30}) {
		t.Fatalf("columns = %+v", rec.Columns)
	}
}

func TestRecoverFallsBackOnTornManifest(t *testing.T) {
	fs := NewFaultFS()
	snapshotAt(t, fs, 1, []int64{10, 20})
	snapshotAt(t, fs, 2, []int64{10, 20, 30})
	// Corrupt generation 2's manifest in the durable view.
	data, err := fs.ReadFile(ManifestName(2))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	fs.cur[ManifestName(2)] = data
	fs.dur[ManifestName(2)] = append([]byte(nil), data...)
	rec, err := Recover(fs)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Gen != 1 || rec.Fallbacks != 1 {
		t.Fatalf("gen=%d fallbacks=%d, want gen 1 with 1 fallback", rec.Gen, rec.Fallbacks)
	}
}

func TestRecoverReplaysWALTailAcrossSegments(t *testing.T) {
	fs := NewFaultFS()
	snapshotAt(t, fs, 1, []int64{10})
	l, err := CreateLog(fs, WALName(1, 0), 1, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Record{Kind: KindInsert, Attr: "a", A: 7}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// A reopen without checkpoint starts a new part of the same gen.
	l2, err := CreateLog(fs, WALName(1, 1), 2, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l2.Append(Record{Kind: KindDelete, Attr: "a", A: 10}); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	rec, err := Recover(fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 2 || rec.SeqAfterReplay != 3 || rec.NextPart != 2 {
		t.Fatalf("records=%d seq=%d part=%d", len(rec.Records), rec.SeqAfterReplay, rec.NextPart)
	}
	if rec.Records[0].Kind != KindInsert || rec.Records[1].Kind != KindDelete {
		t.Fatalf("records out of order: %+v", rec.Records)
	}
}

func TestCleanMarkerConsumedOnOpen(t *testing.T) {
	fs := NewFaultFS()
	snapshotAt(t, fs, 5, []int64{1})
	if err := WriteCleanMarker(fs, 5); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(fs)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Clean {
		t.Fatal("clean shutdown not detected")
	}
	rec2, err := Recover(fs)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Clean {
		t.Fatal("marker survived the first open")
	}
}

func TestPruneKeepsOnlyRequestedGenerations(t *testing.T) {
	fs := NewFaultFS()
	for gen := uint64(1); gen <= 3; gen++ {
		snapshotAt(t, fs, gen, []int64{int64(gen)})
		l, err := CreateLog(fs, WALName(gen, 0), gen, SyncNone)
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
	}
	if err := Prune(fs, map[uint64]bool{2: true, 3: true}); err != nil {
		t.Fatal(err)
	}
	names, _ := fs.List()
	for _, name := range names {
		if gen, owned := fileGeneration(name); owned && gen < 2 {
			t.Fatalf("generation-1 file %s survived prune", name)
		}
	}
	rec, err := Recover(fs)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Gen != 3 {
		t.Fatalf("gen after prune = %d, want 3", rec.Gen)
	}
}

func TestRecoverFreshDirectory(t *testing.T) {
	rec, err := Recover(NewFaultFS())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Gen != 0 || rec.Manifest != nil || len(rec.Records) != 0 || rec.NextPart != 0 {
		t.Fatalf("fresh recover = %+v", rec)
	}
}

func TestShortFsyncTearsUnsyncedSuffix(t *testing.T) {
	fs := NewFaultFS()
	f, err := fs.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("abcdefgh")); err != nil {
		t.Fatal(err)
	}
	fs.KillAt(1, false)
	if err := f.Sync(); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("sync = %v, want injected crash", err)
	}
	fs.Crash()
	data, err := fs.ReadFile("x")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 4 {
		t.Fatalf("short fsync persisted %d bytes, want 4", len(data))
	}
}
