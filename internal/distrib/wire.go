// Package distrib is the distributed scan runner: a coordinator that
// partitions the repo's three long-running computations — the exact
// condition check, the maxf scan, and scenario sweeps — into addressable
// job ranges and serves them to workers over framed TCP, with leases,
// work stealing, and crash-identical resume.
//
// The protocol is a lockstep request/report loop per connection:
//
//	worker                          coordinator
//	hello          ─────────────▶
//	               ◀─────────────  hello
//	jobRequest     ─────────────▶
//	               ◀─────────────  jobGrant (or done)
//	needSpec       ─────────────▶                 (first time per spec)
//	               ◀─────────────  spec
//	reportOK       ─────────────▶                 (through the slice end)
//	               ◀─────────────  ack {next slice end, cancel}
//	…              ─────────────▶
//	jobRequest     ─────────────▶
//
// The coordinator alone decides where a slice ends: the grant carries the
// first slice end and each ack the next, reportEvery spans on or the end of
// the lease, and a worker scans [acked, to), reports through to, and does
// no cadence arithmetic. An ack whose slice is empty ends the job.
//
// Every job is a half-open index range into a deterministic enumeration
// (canonical fault sets for scans, scenario indexes for sweeps), and every
// item's work is a pure function of the job's spec — so a lease that
// expires or dies is simply re-executed elsewhere with an identical
// outcome. See docs/THEORY.md, "Soundness of the distributed scan".
package distrib

import (
	"bufio"
	"encoding/binary"
	"fmt"

	"iabc/internal/condition"
	"iabc/internal/wire"
)

// Wire format: one frame (see wire.ReadFrame, which owns the length prefix
// and its reject-before-allocate rule) holding a 1-byte frame kind plus the
// kind's payload. Fixed-size kinds are strict (the length must match
// exactly); variable-size kinds (spec, reportViol, reportTrace) carry a JSON
// tail and are bounded by maxFramePayload.
const (
	// maxFramePayload is the cap handed to the frame reader. Spec and trace
	// payloads are JSON of graphs, scenario lists, or recorded traces;
	// 16 MiB is far above any real instance while still bounding what a
	// corrupt prefix can make the reader allocate.
	maxFramePayload = 16 << 20
	// wireVersion is the protocol version exchanged in hello frames. Version
	// 2 moved the slice ends from the worker to the coordinator: a grant
	// carries the first one where version 1 carried reportEvery, and an ack
	// the next one where version 1 carried the lease's new upper bound.
	// Version 3 changed the scan spec: it carries the graph's canonical
	// encoding in place of its edge list, and the coordinator's
	// automorphism generators.
	wireVersion = 3
	// helloMagic guards against a stray client dialing the job port.
	helloMagic = 0x69616264 // "iabd"
)

// Frame kinds.
const (
	kindHello byte = iota + 1
	kindJobRequest
	kindJobGrant
	kindNeedSpec
	kindSpec
	kindReportOK
	kindReportViol
	kindReportTrace
	kindAck
	kindDone
)

// Fixed payload sizes per kind (kind byte excluded).
const (
	helloLen       = 5  // magic u32, version u8
	jobGrantLen    = 41 // jobID u64, specID u64, kind u8, lo u64, hi u64, to u64
	needSpecLen    = 8  // specID u64
	reportOKLen    = 40 // jobID u64, through u64, counters 3×u64
	ackLen         = 17 // jobID u64, to u64, flags u8
	specMinLen     = 8  // specID u64 + JSON tail
	reportViolMin  = 64 // jobID u64, viol u64, sat 3×u64, partial 3×u64 + witness JSON
	reportTraceMin = 16 // jobID u64, index u64 + result JSON
)

// jobKind discriminates what a granted index range indexes into.
type jobKind uint8

const (
	// jobScan ranges over the canonical fault-set enumeration of a scan
	// spec (condition.ShardScanner order).
	jobScan jobKind = iota + 1
	// jobScenario ranges over the scenario list of a sweep spec; scenarios
	// are indivisible, so grants always have hi = lo+1.
	jobScenario
	// jobNoop is the dispatch benchmark's empty job: acknowledged complete
	// without any computation.
	jobNoop
)

// jobGrant assigns a worker the half-open range [lo, hi) of the spec's
// enumeration; its first slice is [lo, to).
type jobGrant struct {
	jobID      uint64
	specID     uint64
	kind       jobKind
	lo, hi, to int64
}

// reportOK reports the clean completion of the slice [prevAcked, through)
// with the aggregate work counters of exactly that range.
type reportOK struct {
	jobID    uint64
	through  int64
	counters condition.WorkCounters
}

// reportViol reports that the scan stopped at absolute index viol: the
// prefix [prevAcked, viol) passed with counters sat, the violating item
// itself contributed the early-exit delta partial, and witness is the
// violating partition's JSON (condition.EncodeWitness).
type reportViol struct {
	jobID        uint64
	viol         int64
	sat, partial condition.WorkCounters
	witness      []byte
}

// reportTrace carries one completed scenario's bit-exact result
// (sim.EncodeScenarioResult payload).
type reportTrace struct {
	jobID   uint64
	index   int64
	payload []byte
}

// ack answers every report. to ends the worker's next slice, which starts
// where the report ended — equal to it when the job is done, its remainder
// having been scanned or stolen — and cancel tells the worker to abandon the
// job (its lease was requeued, or the result is moot).
type ack struct {
	jobID  uint64
	to     int64
	cancel bool
}

const ackFlagCancel = 1

// —— encoders: append the full frame (header, kind, payload) to dst ——

func appendHeader(dst []byte, kind byte, payloadLen int) []byte {
	return append(wire.AppendFrameHeader(dst, 1+payloadLen), kind)
}

func appendHello(dst []byte) []byte {
	dst = appendHeader(dst, kindHello, helloLen)
	dst = binary.BigEndian.AppendUint32(dst, helloMagic)
	return append(dst, wireVersion)
}

func appendJobRequest(dst []byte) []byte { return appendHeader(dst, kindJobRequest, 0) }
func appendDone(dst []byte) []byte       { return appendHeader(dst, kindDone, 0) }

func appendJobGrant(dst []byte, g jobGrant) []byte {
	dst = appendHeader(dst, kindJobGrant, jobGrantLen)
	dst = binary.BigEndian.AppendUint64(dst, g.jobID)
	dst = binary.BigEndian.AppendUint64(dst, g.specID)
	dst = append(dst, byte(g.kind))
	dst = binary.BigEndian.AppendUint64(dst, uint64(g.lo))
	dst = binary.BigEndian.AppendUint64(dst, uint64(g.hi))
	return binary.BigEndian.AppendUint64(dst, uint64(g.to))
}

func appendNeedSpec(dst []byte, specID uint64) []byte {
	dst = appendHeader(dst, kindNeedSpec, needSpecLen)
	return binary.BigEndian.AppendUint64(dst, specID)
}

func appendSpec(dst []byte, specID uint64, payload []byte) []byte {
	dst = appendHeader(dst, kindSpec, specMinLen+len(payload))
	dst = binary.BigEndian.AppendUint64(dst, specID)
	return append(dst, payload...)
}

func appendCounters(dst []byte, c condition.WorkCounters) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(c.Candidates))
	dst = binary.BigEndian.AppendUint64(dst, uint64(c.Pruned))
	return binary.BigEndian.AppendUint64(dst, uint64(c.MemoHits))
}

func appendReportOK(dst []byte, r reportOK) []byte {
	dst = appendHeader(dst, kindReportOK, reportOKLen)
	dst = binary.BigEndian.AppendUint64(dst, r.jobID)
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.through))
	return appendCounters(dst, r.counters)
}

func appendReportViol(dst []byte, r reportViol) []byte {
	dst = appendHeader(dst, kindReportViol, reportViolMin+len(r.witness))
	dst = binary.BigEndian.AppendUint64(dst, r.jobID)
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.viol))
	dst = appendCounters(dst, r.sat)
	dst = appendCounters(dst, r.partial)
	return append(dst, r.witness...)
}

func appendReportTrace(dst []byte, r reportTrace) []byte {
	dst = appendHeader(dst, kindReportTrace, reportTraceMin+len(r.payload))
	dst = binary.BigEndian.AppendUint64(dst, r.jobID)
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.index))
	return append(dst, r.payload...)
}

func appendAck(dst []byte, a ack) []byte {
	dst = appendHeader(dst, kindAck, ackLen)
	dst = binary.BigEndian.AppendUint64(dst, a.jobID)
	dst = binary.BigEndian.AppendUint64(dst, uint64(a.to))
	var flags byte
	if a.cancel {
		flags |= ackFlagCancel
	}
	return append(dst, flags)
}

// —— decoders: total on arbitrary payload bytes ——

func wantLen(kind string, p []byte, want int) error {
	if len(p) != want {
		return fmt.Errorf("distrib: %s payload %d bytes, want %d", kind, len(p), want)
	}
	return nil
}

func decodeHello(p []byte) error {
	if err := wantLen("hello", p, helloLen); err != nil {
		return err
	}
	if magic := binary.BigEndian.Uint32(p); magic != helloMagic {
		return fmt.Errorf("distrib: bad hello magic %#x", magic)
	}
	if v := p[4]; v != wireVersion {
		return fmt.Errorf("distrib: peer speaks job protocol version %d, this build speaks %d", v, wireVersion)
	}
	return nil
}

func decodeJobGrant(p []byte) (jobGrant, error) {
	if err := wantLen("jobGrant", p, jobGrantLen); err != nil {
		return jobGrant{}, err
	}
	g := jobGrant{
		jobID:  binary.BigEndian.Uint64(p[0:8]),
		specID: binary.BigEndian.Uint64(p[8:16]),
		kind:   jobKind(p[16]),
		lo:     int64(binary.BigEndian.Uint64(p[17:25])),
		hi:     int64(binary.BigEndian.Uint64(p[25:33])),
		to:     int64(binary.BigEndian.Uint64(p[33:41])),
	}
	if g.kind < jobScan || g.kind > jobNoop {
		return jobGrant{}, fmt.Errorf("distrib: unknown job kind %d", g.kind)
	}
	if g.lo < 0 || g.hi < g.lo || g.to < g.lo || g.to > g.hi {
		return jobGrant{}, fmt.Errorf("distrib: invalid grant range [%d, %d), first slice to %d", g.lo, g.hi, g.to)
	}
	return g, nil
}

func decodeNeedSpec(p []byte) (uint64, error) {
	if err := wantLen("needSpec", p, needSpecLen); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(p), nil
}

func decodeSpec(p []byte) (uint64, []byte, error) {
	if len(p) < specMinLen {
		return 0, nil, fmt.Errorf("distrib: spec payload %d bytes, want >= %d", len(p), specMinLen)
	}
	return binary.BigEndian.Uint64(p[0:8]), p[specMinLen:], nil
}

func decodeCounters(p []byte) condition.WorkCounters {
	return condition.WorkCounters{
		Candidates: int64(binary.BigEndian.Uint64(p[0:8])),
		Pruned:     int64(binary.BigEndian.Uint64(p[8:16])),
		MemoHits:   int64(binary.BigEndian.Uint64(p[16:24])),
	}
}

func decodeReportOK(p []byte) (reportOK, error) {
	if err := wantLen("reportOK", p, reportOKLen); err != nil {
		return reportOK{}, err
	}
	return reportOK{
		jobID:    binary.BigEndian.Uint64(p[0:8]),
		through:  int64(binary.BigEndian.Uint64(p[8:16])),
		counters: decodeCounters(p[16:40]),
	}, nil
}

func decodeReportViol(p []byte) (reportViol, error) {
	if len(p) < reportViolMin {
		return reportViol{}, fmt.Errorf("distrib: reportViol payload %d bytes, want >= %d", len(p), reportViolMin)
	}
	return reportViol{
		jobID:   binary.BigEndian.Uint64(p[0:8]),
		viol:    int64(binary.BigEndian.Uint64(p[8:16])),
		sat:     decodeCounters(p[16:40]),
		partial: decodeCounters(p[40:64]),
		witness: p[reportViolMin:],
	}, nil
}

func decodeReportTrace(p []byte) (reportTrace, error) {
	if len(p) < reportTraceMin {
		return reportTrace{}, fmt.Errorf("distrib: reportTrace payload %d bytes, want >= %d", len(p), reportTraceMin)
	}
	return reportTrace{
		jobID:   binary.BigEndian.Uint64(p[0:8]),
		index:   int64(binary.BigEndian.Uint64(p[8:16])),
		payload: p[reportTraceMin:],
	}, nil
}

func decodeAck(p []byte) (ack, error) {
	if err := wantLen("ack", p, ackLen); err != nil {
		return ack{}, err
	}
	return ack{
		jobID:  binary.BigEndian.Uint64(p[0:8]),
		to:     int64(binary.BigEndian.Uint64(p[8:16])),
		cancel: p[16]&ackFlagCancel != 0,
	}, nil
}

// readFrame reads one frame into scratch and returns its kind and payload,
// which alias scratch and are valid until the next call. Every frame has a
// kind byte, so a zero-length one is a protocol error.
func readFrame(br *bufio.Reader, scratch []byte) (kind byte, payload, newScratch []byte, err error) {
	frame, scratch, err := wire.ReadFrame(br, scratch, maxFramePayload)
	if err != nil {
		return 0, nil, scratch, err
	}
	if len(frame) == 0 {
		return 0, nil, scratch, fmt.Errorf("distrib: zero-length frame")
	}
	return frame[0], frame[1:], scratch, nil
}
