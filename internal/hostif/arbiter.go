package hostif

import "fmt"

// Class is an NVMe-style weighted-round-robin arbitration class. A
// queue pair declares its class at creation (AdminCreateIOQP) and keeps
// it for life. The zero value is ClassMedium, so callers that do not
// care about QoS get the default service class.
type Class uint8

const (
	// ClassMedium is the default weighted class.
	ClassMedium Class = iota
	// ClassUrgent is strict-priority: an urgent queue with a visible
	// command is always served before any weighted class (only the
	// admin queue outranks it).
	ClassUrgent
	// ClassHigh is the heaviest weighted class.
	ClassHigh
	// ClassLow is the lightest weighted class.
	ClassLow
)

var classNames = [...]string{
	ClassMedium: "medium",
	ClassUrgent: "urgent",
	ClassHigh:   "high",
	ClassLow:    "low",
}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Weights are the per-class credit bursts of the weighted-round-robin
// arbiter: while a class has credits and a visible command, it is
// served and pays one credit; when every class holding visible commands
// is out of credits, all classes refill to their weight. Urgent and
// admin are strict-priority and never consume credits.
type Weights struct {
	High, Medium, Low int
}

// DefaultWeights returns the 8/4/2 burst used when HostConfig.Weights
// is zero.
func DefaultWeights() Weights { return Weights{High: 8, Medium: 4, Low: 2} }

// withDefaults replaces non-positive weights with the defaults, so a
// partially-filled Weights never starves a class entirely.
func (w Weights) withDefaults() Weights {
	d := DefaultWeights()
	if w.High <= 0 {
		w.High = d.High
	}
	if w.Medium <= 0 {
		w.Medium = d.Medium
	}
	if w.Low <= 0 {
		w.Low = d.Low
	}
	return w
}

// Arbitration buckets, in service-priority order. Separate from Class
// because the admin queue is not a Class a caller can request.
const (
	bucketAdmin = iota
	bucketUrgent
	bucketHigh
	bucketMedium
	bucketLow
	numBuckets
)

// wrr indexes the weighted buckets into the credit array.
var wrrBuckets = [...]int{bucketHigh, bucketMedium, bucketLow}

func bucketOf(qp *QueuePair) int {
	if qp.admin {
		return bucketAdmin
	}
	switch qp.class {
	case ClassUrgent:
		return bucketUrgent
	case ClassHigh:
		return bucketHigh
	case ClassLow:
		return bucketLow
	default:
		return bucketMedium
	}
}

// arbitrate picks the next queue pair to serve, or nil when no queue
// has a visible command. Caller holds execMu.
//
// The decision is a pure function of (submission history, credit
// state): one scan over the per-queue atomic doorbell timestamps finds
// each bucket's earliest-doorbell queue (ties keep the lower queue ID,
// scanned first; within a queue, slots are FIFO); then the admin
// bucket wins outright, urgent next, and the weighted buckets consume
// credits in class order high → medium → low, refilling every class
// when all ready classes are dry. A host whose I/O queues are all one
// class therefore serves exactly the old flat round-robin order —
// earliest doorbell, ties on (queueID, slot) — which is what keeps the
// default-configuration figure tables byte-identical.
func (h *Host) arbitrate() *QueuePair {
	var best [numBuckets]*QueuePair
	var bestReady [numBuckets]int64
	for b := range bestReady {
		bestReady[b] = noHead
	}
	for _, qp := range h.queuePairs() {
		r := qp.headReady.Load()
		if r == noHead {
			continue
		}
		if b := bucketOf(qp); r < bestReady[b] {
			best[b], bestReady[b] = qp, r
		}
		// Equal ready times fall through: the earlier queue ID
		// (scanned first) keeps the grant.
	}
	if best[bucketAdmin] != nil {
		return best[bucketAdmin]
	}
	if best[bucketUrgent] != nil {
		return best[bucketUrgent]
	}
	if best[bucketHigh] == nil && best[bucketMedium] == nil && best[bucketLow] == nil {
		return nil
	}
	for {
		for i, b := range wrrBuckets {
			if best[b] != nil && h.credits[i] > 0 {
				h.credits[i]--
				return best[b]
			}
		}
		// Every ready class is out of credits: refill the burst.
		h.credits = [3]int{h.weights.High, h.weights.Medium, h.weights.Low}
	}
}
