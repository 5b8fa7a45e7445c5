package layers

import (
	"fmt"
	"hash/crc32"

	"ensemble/internal/event"
	"ensemble/internal/layer"
	"ensemble/internal/transport"
)

// chkState detects payload corruption with a CRC32 checksum: the keyless
// little sibling of the sign layer, for catching accidental damage
// rather than adversaries.
type chkState struct {
	view *event.View

	// BadSums counts verification failures (dropped messages).
	badSums int64
}

type chkHdr struct{ Sum uint32 }

func (chkHdr) Layer() string       { return Chk }
func (chkHdr) WireID() byte        { return idChk }
func (h chkHdr) HdrString() string { return fmt.Sprintf("chk:Sum(%08x)", h.Sum) }

func init() {
	layer.Register(Chk, func(cfg layer.Config) layer.State {
		return &chkState{view: cfg.View}
	})
	transport.RegisterCodec(transport.HeaderCodec{
		Layer: Chk,
		ID:    idChk,
		Encode: func(h event.Header, w *transport.Writer) {
			w.Uvarint(uint64(h.(chkHdr).Sum))
		},
		Decode: func(r *transport.Reader) (event.Header, error) {
			return chkHdr{Sum: uint32(r.Uvarint())}, nil
		},
	})
}

func (s *chkState) Name() string { return Chk }

// BadSums reports how many messages failed the checksum.
func (s *chkState) BadSums() int64 { return s.badSums }

func (s *chkState) HandleDn(ev *event.Event, snk layer.Sink) {
	if isData(ev) {
		ev.Msg.Push(chkHdr{Sum: crc32.ChecksumIEEE(ev.Msg.Payload)})
	}
	snk.PassDn(ev)
}

func (s *chkState) HandleUp(ev *event.Event, snk layer.Sink) {
	if !isData(ev) {
		snk.PassUp(ev)
		return
	}
	h, ok := ev.Msg.Pop().(chkHdr)
	if !ok || h.Sum != crc32.ChecksumIEEE(ev.Msg.Payload) {
		s.badSums++
		event.Free(ev)
		return
	}
	snk.PassUp(ev)
}
