package transport

import "ensemble/internal/event"

// Image is a message in the form a buffering layer retains it: the
// header stack encoded exactly as Marshal encodes it (outermost first,
// layer id then body), the payload, and the facts the bytes do not
// carry. It is the one representation the reliability layers buffer in
// (layers.msgLog): pointer-free, so holding a million of them gives the
// collector nothing to trace. Like the Writer's, the two segments need
// not be adjacent in memory — off the wire they are, one contiguous
// suffix of the sub-packet that arrived.
type Image struct {
	// Hdrs is NHdrs × {layerID, header body}.
	Hdrs    []byte
	Payload []byte
	NHdrs   uint8
	ApplMsg bool
	// Borrowed reports that some of the bytes may be rewritten once the
	// call that produced the image returns: a borrowed payload
	// (event.Event.Borrowed), or headers encoded into a reused writer. A
	// keeper copies a borrowed image; an owned one may be kept by
	// reference.
	Borrowed bool
}

// ImageOf returns the image of ev's message as it stands. For an event
// that came off the wire and has only been popped since, the header
// bytes are a suffix of the arrival buffer and cost nothing, and the
// image is as borrowed as ev is; anything else (the send side, bypass
// fallbacks) is encoded into w, valid until w's next use, so the image
// is borrowed. The error is Marshal's: a header whose layer registered
// no codec.
func ImageOf(ev *event.Event, w *Writer) (Image, error) {
	if hdrs, ok := ev.Msg.EncodedHeaders(); ok {
		return Image{Hdrs: hdrs, Payload: ev.Msg.Payload, NHdrs: uint8(len(ev.Msg.Headers)), ApplMsg: ev.ApplMsg, Borrowed: ev.Borrowed}, nil
	}
	if len(ev.Msg.Headers) > maxHeaders {
		return Image{}, ErrBadWire("implausible header count %d", len(ev.Msg.Headers))
	}
	w.Reset()
	if err := encodeHeaders(ev.Msg.Headers, w); err != nil {
		return Image{}, err
	}
	return Image{Hdrs: w.hdr, Payload: ev.Msg.Payload, NHdrs: uint8(len(ev.Msg.Headers)), ApplMsg: ev.ApplMsg, Borrowed: true}, nil
}

// FromImage is ImageOf's inverse: it decodes img into ev's message
// (headers into ev's reused storage, payload by reference) and sets
// ev.ApplMsg and ev.Borrowed. The decoded event again knows its encoded
// form, so a layer further up that buffers it pays no encoding either.
func FromImage(img Image, ev *event.Event) error {
	r := readerPool.Get().(*Reader)
	r.Reset(img.Hdrs)
	err := decodeHeaders(r, &ev.Msg, uint64(img.NHdrs), nil, 0)
	if err == nil && r.Remaining() != 0 {
		err = ErrBadWire("%d bytes after the image's %d headers", r.Remaining(), img.NHdrs)
	}
	r.Reset(nil)
	readerPool.Put(r)
	ev.Msg.Payload, ev.ApplMsg, ev.Borrowed = img.Payload, img.ApplMsg, img.Borrowed
	return err
}
