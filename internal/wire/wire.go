// Package wire owns the two byte-level encodings every socket protocol and
// persisted record in this module shares, so each is decided in one place:
//
//   - The frame: a 4-byte big-endian payload length followed by the payload.
//     internal/transport (one fixed 33-byte payload per Delivery) and
//     internal/distrib (a kind byte plus a fixed or JSON payload) differ only
//     in the cap they pass to ReadFrame and in what they make of the payload.
//   - Bit-exact floats in JSON: Floats and FloatRows marshal as IEEE-754 bit
//     patterns, so a trace, an initial vector or an epsilon that crosses a
//     socket or a crash comes back identical, NaN and ±Inf included.
package wire

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// FrameHeaderLen is the size of the length prefix in bytes.
const FrameHeaderLen = 4

// AppendFrameHeader appends the length prefix of an n-byte payload to dst.
func AppendFrameHeader(dst []byte, n int) []byte {
	return binary.BigEndian.AppendUint32(dst, uint32(n))
}

// ReadFrame reads one frame from br and returns its payload, which aliases
// the returned scratch and is valid until the next call. A declared length
// above max is rejected before a single payload byte is read or allocated —
// a corrupt or hostile prefix can never make the reader buffer an
// attacker-chosen amount — and scratch grows only to the declared length.
// io.EOF at a frame boundary is returned as-is; a stream that ends inside a
// frame yields io.ErrUnexpectedEOF. A zero-length frame is a valid empty
// payload; callers whose protocol has none reject it themselves.
func ReadFrame(br *bufio.Reader, scratch []byte, max uint32) (payload, newScratch []byte, err error) {
	hdr, err := br.Peek(FrameHeaderLen)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, scratch, err
	}
	n := binary.BigEndian.Uint32(hdr)
	br.Discard(FrameHeaderLen) // cannot fail: Peek just buffered these bytes
	if n > max {
		return nil, scratch, fmt.Errorf("wire: frame length %d exceeds cap %d", n, max)
	}
	if cap(scratch) < int(n) {
		scratch = make([]byte, n)
	}
	scratch = scratch[:n]
	if _, err := io.ReadFull(br, scratch); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, scratch, err
	}
	return scratch, scratch, nil
}

// Floats is a []float64 whose JSON form is the array of its elements'
// IEEE-754 bit patterns (math.Float64bits), nil as null.
type Floats []float64

// FloatRows is a [][]float64 whose JSON form is an array of Floats.
type FloatRows [][]float64

func appendFloats(dst []byte, fs []float64) []byte {
	if fs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, f := range fs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, math.Float64bits(f), 10)
	}
	return append(dst, ']')
}

// MarshalJSON implements json.Marshaler.
func (fs Floats) MarshalJSON() ([]byte, error) {
	return appendFloats(make([]byte, 0, 2+21*len(fs)), fs), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (fs *Floats) UnmarshalJSON(raw []byte) error {
	var bits []uint64
	if err := json.Unmarshal(raw, &bits); err != nil {
		return err
	}
	*fs = nil
	if bits != nil {
		*fs = make([]float64, len(bits))
		for i, b := range bits {
			(*fs)[i] = math.Float64frombits(b)
		}
	}
	return nil
}

// MarshalJSON implements json.Marshaler.
func (rows FloatRows) MarshalJSON() ([]byte, error) {
	if rows == nil {
		return []byte("null"), nil
	}
	dst := []byte{'['}
	for i, fs := range rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendFloats(dst, fs)
	}
	return append(dst, ']'), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (rows *FloatRows) UnmarshalJSON(raw []byte) error {
	var fss []Floats
	if err := json.Unmarshal(raw, &fss); err != nil {
		return err
	}
	*rows = nil
	if fss != nil {
		*rows = make([][]float64, len(fss))
		for i, fs := range fss {
			(*rows)[i] = fs
		}
	}
	return nil
}
