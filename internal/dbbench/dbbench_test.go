package dbbench

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/lsm"
	"repro/internal/vclock"
)

func testDB(t *testing.T) *lsm.DB {
	t.Helper()
	db, err := lsm.Open(lsm.Options{
		Env:           lsm.NewMemEnv(16*1024, 16),
		MemtableBytes: 64 * 1024,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestKeyEncoding(t *testing.T) {
	k := Key(42, 16)
	if len(k) != 16 {
		t.Fatalf("key length = %d", len(k))
	}
	if string(k) != "0000000000000042" {
		t.Fatalf("key = %q", k)
	}
	// Keys sort in index order.
	if !(bytes.Compare(Key(1, 16), Key(2, 16)) < 0 && bytes.Compare(Key(99, 16), Key(100, 16)) < 0) {
		t.Fatal("keys do not sort numerically")
	}
	// Deterministic values.
	if !bytes.Equal(Value(7, 100), Value(7, 100)) {
		t.Fatal("values not deterministic")
	}
	if bytes.Equal(Value(7, 100), Value(8, 100)) {
		t.Fatal("distinct keys share a value")
	}
}

// valueBytewise is the byte-at-a-time ValueInto the word-at-a-time one
// replaced; Figure 5/6 fills depend on its exact bytes.
func valueBytewise(i int64, size int) []byte {
	dst := make([]byte, size)
	var seed [8]byte
	binary.LittleEndian.PutUint64(seed[:], uint64(i)*0x9E3779B97F4A7C15+1)
	for j := 0; j < size; j++ {
		dst[j] = seed[j%8] ^ byte(j)
	}
	return dst
}

// TestValueIntoMatchesBytewise: for every size up to a few KB, ragged
// tails included, and for negative indexes, ValueInto writes exactly the
// byte loop's bytes, whether it fills a fresh buffer or reuses a dirty
// one.
func TestValueIntoMatchesBytewise(t *testing.T) {
	scratch := bytes.Repeat([]byte{0xee}, 4099)
	for _, i := range []int64{0, 1, 7, 200000, -1, -123456789, math.MinInt64, math.MaxInt64} {
		for size := 0; size <= 4099; size++ {
			want := valueBytewise(i, size)
			if got := ValueInto(nil, i, size); !bytes.Equal(got, want) {
				t.Fatalf("index %d size %d: fresh buffer differs from the byte loop", i, size)
			}
			if got := ValueInto(scratch, i, size); !bytes.Equal(got, want) {
				t.Fatalf("index %d size %d: reused buffer differs from the byte loop", i, size)
			}
		}
	}
}

func BenchmarkValueInto(b *testing.B) {
	buf := make([]byte, 1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		buf = ValueInto(buf, int64(i), 1024)
	}
}

func TestFillThenReadWorkloads(t *testing.T) {
	db := testDB(t)
	cfg := Config{Clients: 2, OpsPerClient: 300, ValueSize: 128, Seed: 1}
	fill, err := Run(db, FillSequential, cfg, 0)
	if err != nil {
		t.Fatalf("fill: %v", err)
	}
	if fill.Ops != 600 {
		t.Fatalf("fill ops = %d", fill.Ops)
	}
	if fill.OpsPerSec <= 0 {
		t.Fatal("fill throughput not measured")
	}
	start := db.WaitIdle(fill.End)

	rseq, err := Run(db, ReadSequential, cfg, start)
	if err != nil {
		t.Fatalf("read-seq: %v", err)
	}
	if rseq.Ops != 600 {
		t.Fatalf("read-seq ops = %d", rseq.Ops)
	}

	rrand, err := Run(db, ReadRandom, cfg, start)
	if err != nil {
		t.Fatalf("read-random: %v", err)
	}
	if rrand.Ops != 600 {
		t.Fatalf("read-random ops = %d", rrand.Ops)
	}
	// Every random read must hit (the fill wrote all keys).
	if rrand.NotFound != 0 {
		t.Fatalf("read-random missed %d keys", rrand.NotFound)
	}
}

func TestReadSeqFasterThanReadRandom(t *testing.T) {
	// The paper: "The throughput of read-sequential is much higher than
	// the throughput of read-random."
	db := testDB(t)
	cfg := Config{Clients: 1, OpsPerClient: 2000, ValueSize: 128, Seed: 2}
	fill, err := Run(db, FillSequential, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	start := db.WaitIdle(fill.End)
	rseq, err := Run(db, ReadSequential, cfg, start)
	if err != nil {
		t.Fatal(err)
	}
	rrand, err := Run(db, ReadRandom, cfg, start)
	if err != nil {
		t.Fatal(err)
	}
	if rseq.OpsPerSec <= rrand.OpsPerSec {
		t.Fatalf("read-seq (%.0f) should beat read-random (%.0f)",
			rseq.OpsPerSec, rrand.OpsPerSec)
	}
}

func TestTimelineRecorded(t *testing.T) {
	db := testDB(t)
	cfg := Config{Clients: 1, OpsPerClient: 500, ValueSize: 128, Seed: 3,
		TimelineBucket: vclock.Millisecond}
	res, err := Run(db, FillSequential, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Timeline == nil || res.Timeline.Total() != 500 {
		t.Fatal("timeline missing or incomplete")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (vclock.Time, float64) {
		db := testDB(t)
		cfg := Config{Clients: 4, OpsPerClient: 200, ValueSize: 128, Seed: 9}
		res, err := Run(db, FillSequential, cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.End, res.OpsPerSec
	}
	e1, t1 := run()
	e2, t2 := run()
	if e1 != e2 || t1 != t2 {
		t.Fatalf("runs diverged: %v/%v vs %v/%v", e1, t1, e2, t2)
	}
}

func TestConfigValidation(t *testing.T) {
	db := testDB(t)
	if _, err := Run(db, FillSequential, Config{Clients: 1}, 0); err == nil {
		t.Fatal("zero ops should be rejected")
	}
	if _, err := Run(db, FillSequential, Config{Clients: 1, OpsPerClient: 10, KeySize: 4}, 0); err == nil {
		t.Fatal("tiny keys should be rejected")
	}
	if _, err := Run(db, ReadSequential, Config{Clients: 1, OpsPerClient: 10}, 0); err == nil {
		t.Fatal("read of empty database should be rejected")
	}
	if _, err := Run(db, Workload(99), Config{Clients: 1, OpsPerClient: 1}, 0); err == nil {
		t.Fatal("unknown workload should be rejected")
	}
}

func TestWorkloadNames(t *testing.T) {
	if FillSequential.String() != "fill-sequential" ||
		ReadSequential.String() != "read-sequential" ||
		ReadRandom.String() != "read-random" {
		t.Fatal("workload names wrong")
	}
}

func TestMultiClientSharesVirtualTime(t *testing.T) {
	// With k clients the aggregate ops are k× but elapsed should grow
	// far less than k× (clients overlap in virtual time).
	elapsed := func(clients int) vclock.Duration {
		db := testDB(t)
		cfg := Config{Clients: clients, OpsPerClient: 400, ValueSize: 128, Seed: 5}
		res, err := Run(db, FillSequential, cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed()
	}
	one := elapsed(1)
	four := elapsed(4)
	if four >= 4*one {
		t.Fatalf("4 clients took %v, 1 client %v: no overlap at all", four, one)
	}
}
