package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"

	"iabc/internal/wire"
)

// Wire format of the TCP transport: one frame (see wire.ReadFrame, which
// owns the length prefix and its reject-before-allocate rule) per Delivery,
// with a fixed 32-byte payload:
//
//	from  uint32   sending node id
//	to    uint32   receiving node id
//	round uint64   Msg.Round (two's complement of the int64 value)
//	value uint64   Msg.Value as IEEE-754 bits (math.Float64bits)
//	seq   uint64   Msg.Seq
//
// The codec is strict: the declared length must equal framePayloadLen
// exactly, which is also the cap handed to the frame reader. Because the
// format has exactly one encoding per Delivery, decode∘encode is the
// identity on frames and encode∘decode is the identity on valid payloads —
// the property FuzzWireCodec pins.

// framePayloadLen is the exact payload size of the one frame type.
const framePayloadLen = 32

// appendFrame appends d's wire frame (header + payload) to dst.
func appendFrame(dst []byte, d Delivery) []byte {
	dst = wire.AppendFrameHeader(dst, framePayloadLen)
	dst = binary.BigEndian.AppendUint32(dst, uint32(d.From))
	dst = binary.BigEndian.AppendUint32(dst, uint32(d.To))
	dst = binary.BigEndian.AppendUint64(dst, uint64(int64(d.Round)))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(d.Value))
	dst = binary.BigEndian.AppendUint64(dst, d.Seq)
	return dst
}

// decodePayload decodes one frame payload; it checks the length itself so it
// is total on arbitrary input.
func decodePayload(p []byte) (Delivery, error) {
	if len(p) != framePayloadLen {
		return Delivery{}, fmt.Errorf("transport: frame payload %d bytes, want %d", len(p), framePayloadLen)
	}
	return Delivery{
		From: int(int32(binary.BigEndian.Uint32(p[0:4]))),
		To:   int(int32(binary.BigEndian.Uint32(p[4:8]))),
		Msg: Msg{
			Round: int(int64(binary.BigEndian.Uint64(p[8:16]))),
			Value: math.Float64frombits(binary.BigEndian.Uint64(p[16:24])),
			Seq:   binary.BigEndian.Uint64(p[24:32]),
		},
	}, nil
}

// readFrame reads one frame from br into scratch and decodes it.
func readFrame(br *bufio.Reader, scratch []byte) (Delivery, []byte, error) {
	payload, scratch, err := wire.ReadFrame(br, scratch, framePayloadLen)
	if err != nil {
		return Delivery{}, scratch, err
	}
	d, err := decodePayload(payload)
	return d, scratch, err
}
