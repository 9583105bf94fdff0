// Package dbbench reproduces the db_bench workloads of §4.3: fill-
// sequential, read-sequential and read-random with 16-byte keys and
// 1 KB values, run by a configurable number of client threads. Clients
// are simulated deterministically: a discrete-event loop always advances
// the client with the smallest virtual clock, so runs are reproducible
// bit-for-bit for a given seed.
package dbbench

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/lsm"
	"repro/internal/metrics"
	"repro/internal/vclock"
)

// Workload selects a db_bench workload.
type Workload int

// The three workloads of Figure 5.
const (
	FillSequential Workload = iota
	ReadSequential
	ReadRandom
)

func (w Workload) String() string {
	switch w {
	case FillSequential:
		return "fill-sequential"
	case ReadSequential:
		return "read-sequential"
	case ReadRandom:
		return "read-random"
	default:
		return fmt.Sprintf("Workload(%d)", int(w))
	}
}

// Config shapes a run.
type Config struct {
	Clients      int
	KeySize      int // default 16 (paper)
	ValueSize    int // default 1024 (paper)
	OpsPerClient int
	Seed         int64
	// TimelineBucket is the sampling width for throughput-vs-time
	// series (Figure 6); zero disables the timeline.
	TimelineBucket vclock.Duration
}

func (c *Config) fill() error {
	if c.Clients <= 0 {
		c.Clients = 1
	}
	if c.KeySize <= 0 {
		c.KeySize = 16
	}
	if c.KeySize < 10 {
		return errors.New("dbbench: keys need at least 10 bytes")
	}
	if c.ValueSize <= 0 {
		c.ValueSize = 1024
	}
	if c.OpsPerClient <= 0 {
		return errors.New("dbbench: OpsPerClient must be positive")
	}
	return nil
}

// Result reports one run.
type Result struct {
	Workload  Workload
	Clients   int
	Ops       int64
	NotFound  int64
	Start     vclock.Time
	End       vclock.Time
	OpsPerSec float64
	Timeline  *metrics.Timeline
}

// Elapsed reports the run's virtual duration.
func (r Result) Elapsed() vclock.Duration { return r.End.Sub(r.Start) }

// KeyInto renders key index i (non-negative) in db_bench style — a
// fixed-width decimal padded to size bytes — into dst, reusing its
// capacity. Client loops pass their scratch buffer so steady-state key
// generation allocates nothing.
func KeyInto(dst []byte, i int64, size int) []byte {
	if cap(dst) < size {
		dst = make([]byte, size)
	} else {
		dst = dst[:size]
	}
	for j := range dst {
		dst[j] = '0'
	}
	var dbuf [20]byte
	d := strconv.AppendInt(dbuf[:0], i, 10)
	if len(d) > size {
		d = d[len(d)-size:]
	}
	copy(dst[size-len(d):], d)
	return dst
}

// Key is KeyInto with a fresh buffer.
func Key(i int64, size int) []byte { return KeyInto(nil, i, size) }

// ValueInto produces the deterministic value for key index i into dst,
// reusing its capacity.
func ValueInto(dst []byte, i int64, size int) []byte {
	if cap(dst) < size {
		dst = make([]byte, size)
	} else {
		dst = dst[:size]
	}
	var seed [8]byte
	binary.LittleEndian.PutUint64(seed[:], uint64(i)*0x9E3779B97F4A7C15+1)
	for j := 0; j < size; j++ {
		dst[j] = seed[j%8] ^ byte(j)
	}
	return dst
}

// Value is ValueInto with a fresh buffer.
func Value(i int64, size int) []byte { return ValueInto(nil, i, size) }

type client struct {
	id   int
	now  vclock.Time
	done int
	rng  *rand.Rand
	iter *lsm.Iterator
	// key and value are per-client scratch buffers: the LSM copies keys
	// and values into its own arenas, so the read/write loops reuse the
	// same two slices for every operation instead of allocating per op.
	key   []byte
	value []byte
}

// Run executes one workload against db. Fill runs write each client's
// key range; read runs assume the fill ranges exist (run FillSequential
// first, as the paper does).
func Run(db *lsm.DB, w Workload, cfg Config, start vclock.Time) (Result, error) {
	if err := cfg.fill(); err != nil {
		return Result{}, err
	}
	res := Result{Workload: w, Clients: cfg.Clients, Start: start}
	if cfg.TimelineBucket > 0 {
		res.Timeline = metrics.NewTimeline(cfg.TimelineBucket)
	}
	clients := make([]*client, cfg.Clients)
	for i := range clients {
		clients[i] = &client{
			id:  i,
			now: start,
			rng: rand.New(rand.NewSource(cfg.Seed + int64(i)*7919)),
		}
		if w == ReadSequential {
			c := clients[i]
			c.iter = db.NewIterator(&c.now)
		}
	}
	totalKeys := int64(cfg.Clients) * int64(cfg.OpsPerClient)
	var fillCounter int64

	// Discrete-event loop: always advance the laggard client.
	remaining := cfg.Clients * cfg.OpsPerClient
	for remaining > 0 {
		c := clients[0]
		for _, cand := range clients[1:] {
			if cand.done < cfg.OpsPerClient && (c.done >= cfg.OpsPerClient || cand.now < c.now) {
				c = cand
			}
		}
		if c.done >= cfg.OpsPerClient {
			break
		}
		var err error
		switch w {
		case FillSequential:
			// db_bench fillseq semantics: all threads draw from one
			// shared ascending counter, so the key stream is globally
			// sorted and L0 files stay non-overlapping.
			idx := fillCounter
			fillCounter++
			c.key = KeyInto(c.key, idx, cfg.KeySize)
			c.value = ValueInto(c.value, idx, cfg.ValueSize)
			c.now, err = db.Put(c.now, c.key, c.value)
		case ReadSequential:
			_, _, ok := c.iter.Next()
			if !ok && c.iter.Err() == nil {
				// Wrap: restart the scan (keeps op counts comparable).
				c.iter = db.NewIterator(&c.now)
				if _, _, ok = c.iter.Next(); !ok && c.iter.Err() == nil {
					return res, errors.New("dbbench: database is empty; run fill first")
				}
			}
			err = c.iter.Err()
		case ReadRandom:
			idx := c.rng.Int63n(totalKeys)
			c.key = KeyInto(c.key, idx, cfg.KeySize)
			var v []byte
			v, c.now, err = db.GetInto(c.now, c.key, c.value)
			if v != nil {
				c.value = v // keep the (possibly grown) scratch buffer
			}
			if errors.Is(err, lsm.ErrNotFound) {
				res.NotFound++
				err = nil
			}
		default:
			return res, fmt.Errorf("dbbench: unknown workload %d", w)
		}
		if err != nil {
			return res, fmt.Errorf("dbbench: client %d op %d: %w", c.id, c.done, err)
		}
		c.done++
		remaining--
		res.Ops++
		if res.Timeline != nil {
			res.Timeline.Record(c.now, 1)
		}
		if c.now > res.End {
			res.End = c.now
		}
	}
	if res.End > res.Start {
		res.OpsPerSec = metrics.Throughput(res.Ops, res.Elapsed())
	}
	return res, nil
}
