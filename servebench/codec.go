package main

import (
	"time"

	"accuracytrader/internal/wire"
)

// codecRounds is how many times each captured message is encoded and
// decoded when timing the codec.
const codecRounds = 50

// codecTiming is the mean encode and decode cost of one frame kind.
type codecTiming struct{ encodeNs, decodeNs float64 }

// timeCodec times wire encoding and decoding of messages captured in
// the run, off the serving path: encode appends each message's frame
// into a reused buffer; decode parses each pre-encoded frame body.
func timeCodec[T any](msgs []T, encode func([]byte, T) []byte, decode func([]byte) error) (codecTiming, error) {
	if len(msgs) == 0 {
		return codecTiming{}, nil
	}
	frames := make([][]byte, len(msgs))
	for i, m := range msgs {
		frames[i] = encode(nil, m)
	}
	var buf []byte
	t0 := time.Now()
	for r := 0; r < codecRounds; r++ {
		for _, m := range msgs {
			buf = encode(buf[:0], m)
		}
	}
	enc := time.Since(t0)
	t0 = time.Now()
	for r := 0; r < codecRounds; r++ {
		for _, f := range frames {
			if err := decode(f[4:]); err != nil { // skip the length prefix
				return codecTiming{}, err
			}
		}
	}
	dec := time.Since(t0)
	n := float64(codecRounds * len(msgs))
	return codecTiming{encodeNs: float64(enc) / n, decodeNs: float64(dec) / n}, nil
}

// codecTimings times the three frame kinds of the serving path.
func (t *tracer) codecTimings() (req, sub, rep codecTiming, err error) {
	t.capMu.Lock()
	reqs, subs, reps := t.reqs, t.subs, t.reps
	t.capMu.Unlock()
	if req, err = timeCodec(reqs, wire.AppendRequestFrame,
		func(b []byte) error { _, err := wire.DecodeRequest(b); return err }); err != nil {
		return
	}
	if sub, err = timeCodec(subs, wire.AppendSubReplyFrame,
		func(b []byte) error { _, err := wire.DecodeSubReply(b); return err }); err != nil {
		return
	}
	rep, err = timeCodec(reps, wire.AppendReplyFrame,
		func(b []byte) error { _, err := wire.DecodeReply(b); return err })
	return
}
