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
// with a fixed 33-byte payload:
//
//	from  uint32   sending node id
//	to    uint32   receiving node id
//	kind  uint8    0 for a value, 1 for an ask (Msg.Ask)
//	round uint64   Msg.Round (two's complement of the int64 value)
//	value uint64   Msg.Value as IEEE-754 bits (math.Float64bits)
//	seq   uint64   Msg.Seq
//
// The codec is strict: the declared length must equal framePayloadLen
// exactly, which is also the cap handed to the frame reader, and a kind
// byte other than 0 or 1 is rejected. Because the format has exactly one
// encoding per Delivery, decode∘encode is the identity on frames and
// encode∘decode is the identity on valid payloads — the property
// FuzzWireCodec pins.

// framePayloadLen is the exact payload size of the one frame layout.
const framePayloadLen = 33

// The kind byte's two values.
const (
	kindValue = 0
	kindAsk   = 1
)

// appendFrame appends d's wire frame (header + payload) to dst.
func appendFrame(dst []byte, d Delivery) []byte {
	dst = wire.AppendFrameHeader(dst, framePayloadLen)
	dst = binary.BigEndian.AppendUint32(dst, uint32(d.From))
	dst = binary.BigEndian.AppendUint32(dst, uint32(d.To))
	kind := byte(kindValue)
	if d.Ask {
		kind = kindAsk
	}
	dst = append(dst, kind)
	dst = binary.BigEndian.AppendUint64(dst, uint64(int64(d.Round)))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(d.Value))
	dst = binary.BigEndian.AppendUint64(dst, d.Seq)
	return dst
}

// decodePayload decodes one frame payload; it checks the length and the
// kind byte itself so it is total on arbitrary input.
func decodePayload(p []byte) (Delivery, error) {
	if len(p) != framePayloadLen {
		return Delivery{}, fmt.Errorf("transport: frame payload %d bytes, want %d", len(p), framePayloadLen)
	}
	if p[8] > kindAsk {
		return Delivery{}, fmt.Errorf("transport: frame kind %d, want %d or %d", p[8], kindValue, kindAsk)
	}
	return Delivery{
		From: int32(binary.BigEndian.Uint32(p[0:4])),
		To:   int32(binary.BigEndian.Uint32(p[4:8])),
		Msg: Msg{
			Round: int(int64(binary.BigEndian.Uint64(p[9:17]))),
			Value: math.Float64frombits(binary.BigEndian.Uint64(p[17:25])),
			Seq:   binary.BigEndian.Uint64(p[25:33]),
			Ask:   p[8] == kindAsk,
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
