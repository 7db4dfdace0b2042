package distrib

import (
	"bufio"
	"bytes"
	"testing"

	"iabc/internal/condition"
	"iabc/internal/wire"
)

// testFrames returns one valid encoded frame per kind, paired with a
// re-encoder that rebuilds the frame from its decoded form.
func testFrames(t *testing.T) [][]byte {
	t.Helper()
	counters := condition.WorkCounters{Candidates: 7, Pruned: 2, MemoHits: 3}
	return [][]byte{
		appendHello(nil),
		appendJobRequest(nil),
		appendJobGrant(nil, jobGrant{jobID: 9, specID: 2, kind: jobScan, lo: 128, hi: 1152, reportEvery: 256}),
		appendNeedSpec(nil, 2),
		appendSpec(nil, 2, []byte(`{"kind":"noop"}`)),
		appendReportOK(nil, reportOK{jobID: 9, through: 384, counters: counters}),
		appendReportViol(nil, reportViol{jobID: 9, viol: 400, sat: counters, partial: condition.WorkCounters{Candidates: 1}, witness: []byte(`{"n":4}`)}),
		appendReportTrace(nil, reportTrace{jobID: 9, index: 3, payload: []byte(`{"version":1}`)}),
		appendAck(nil, ack{jobID: 9, newHi: 512, cancel: true}),
		appendDone(nil),
	}
}

// reencode rebuilds a frame from its decoded payload, or returns nil when
// the payload does not decode (the fuzzer then only requires totality).
func reencode(kind byte, payload []byte) []byte {
	switch kind {
	case kindHello:
		if decodeHello(payload) != nil {
			return nil
		}
		return appendHello(nil)
	case kindJobRequest:
		if len(payload) != 0 {
			return nil
		}
		return appendJobRequest(nil)
	case kindDone:
		if len(payload) != 0 {
			return nil
		}
		return appendDone(nil)
	case kindJobGrant:
		g, err := decodeJobGrant(payload)
		if err != nil {
			return nil
		}
		return appendJobGrant(nil, g)
	case kindNeedSpec:
		id, err := decodeNeedSpec(payload)
		if err != nil {
			return nil
		}
		return appendNeedSpec(nil, id)
	case kindSpec:
		id, body, err := decodeSpec(payload)
		if err != nil {
			return nil
		}
		return appendSpec(nil, id, body)
	case kindReportOK:
		r, err := decodeReportOK(payload)
		if err != nil {
			return nil
		}
		return appendReportOK(nil, r)
	case kindReportViol:
		r, err := decodeReportViol(payload)
		if err != nil {
			return nil
		}
		return appendReportViol(nil, r)
	case kindReportTrace:
		r, err := decodeReportTrace(payload)
		if err != nil {
			return nil
		}
		return appendReportTrace(nil, r)
	case kindAck:
		a, err := decodeAck(payload)
		if err != nil || payload[16] > ackFlagCancel {
			return nil // undefined flag bits do not re-encode canonically
		}
		return appendAck(nil, a)
	}
	return nil
}

// TestJobWireRoundTrip pins that every frame kind survives encode → frame
// read → decode → re-encode byte-identically.
func TestJobWireRoundTrip(t *testing.T) {
	frames := testFrames(t)
	var stream []byte
	for _, f := range frames {
		stream = append(stream, f...)
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	var scratch []byte
	for i, frame := range frames {
		kind, payload, sc, err := readFrame(br, scratch)
		scratch = sc
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		re := reencode(kind, payload)
		if re == nil {
			t.Fatalf("frame %d (kind %d): decoded form did not re-encode", i, kind)
		}
		if !bytes.Equal(re, frame) {
			t.Fatalf("frame %d (kind %d): re-encoded % x, want % x", i, kind, re, frame)
		}
	}
	if _, _, _, err := readFrame(br, scratch); err == nil {
		t.Fatal("expected EOF after the last frame")
	}
}

// FuzzJobWireCodec mirrors transport's FuzzWireCodec for the job protocol:
// an arbitrary byte stream never panics the frame reader or any decoder, the
// scratch buffer never exceeds the sanity cap, and every frame that decodes
// re-encodes to exactly the bytes consumed.
func FuzzJobWireCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendHello(nil))
	var all []byte
	counters := condition.WorkCounters{Candidates: 7, Pruned: 2, MemoHits: 3}
	for _, frame := range [][]byte{
		appendJobRequest(nil),
		appendJobGrant(nil, jobGrant{jobID: 1, specID: 1, kind: jobScenario, lo: 0, hi: 1, reportEvery: 1}),
		appendSpec(nil, 1, []byte(`{"kind":"noop"}`)),
		appendReportOK(nil, reportOK{jobID: 1, through: 1, counters: counters}),
		appendReportViol(nil, reportViol{jobID: 1, viol: 0, sat: counters, witness: []byte(`{}`)}),
		appendAck(nil, ack{jobID: 1, newHi: 1}),
		appendDone(nil),
	} {
		all = append(all, frame...)
	}
	f.Add(all)
	f.Add([]byte{0, 0, 0, 32, 1, 2, 3})         // truncated payload
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0}) // hostile length
	f.Add([]byte{0, 0, 0, 0})                   // zero-length frame
	f.Add([]byte{0, 0, 0, 6, kindAck, 0})       // wrong fixed length
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var scratch []byte
		offset := 0
		for {
			kind, payload, sc, err := readFrame(br, scratch)
			scratch = sc
			if cap(scratch) > maxFramePayload {
				t.Fatalf("scratch grew to %d bytes, cap is %d", cap(scratch), maxFramePayload)
			}
			if err != nil {
				return // any error ends the stream; no panic is the property
			}
			frameLen := wire.FrameHeaderLen + 1 + len(payload)
			consumed := data[offset : offset+frameLen]
			if re := reencode(kind, payload); re != nil && !bytes.Equal(re, consumed) {
				t.Fatalf("kind %d re-encodes to % x, consumed % x", kind, re, consumed)
			}
			offset += frameLen
		}
	})
}
