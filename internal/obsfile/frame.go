package obsfile

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Length-prefixed binary batch frames: the compact wire format of a trace
// stream. A JSONL event costs ~60 bytes and one json.Unmarshal; a framed
// event costs a handful of bytes and a varint walk, so a producer that
// batches events into frames amortizes nearly all of the parse cost out of
// the serve ingest path. The stream is
//
//	magic "LUB1" · frame*
//	frame = uvarint payloadLen · payload
//	payload = uvarint count · event{count}
//	event = kind byte ('c'/'r'/'s') · varint t · str op · str res · str p
//	str = uvarint len · bytes
//
// Every TraceEvent field is encoded for every kind, so a frame stream
// round-trips the exact event sequence of the equivalent JSONL stream —
// FuzzBatchFrame holds the two paths to event-for-event agreement. A partial
// frame at end of input is a *TruncatedFrameError carrying the byte offset
// where the frame began, never a silent clean EOF.

// BatchContentType is the Content-Type that names batch frames on POST
// /ingest. It is accepted and not needed: serve tells frames from JSONL by
// FrameMagic, whatever the Content-Type says.
const BatchContentType = "application/x-lineup-batch"

// FrameMagic opens a batch stream. It shares no prefix with JSONL ('{' or
// '#'), so a stream's first four bytes tell the two apart and a format mix-up
// fails immediately with a clear diagnostic.
const FrameMagic = "LUB1"

// maxFramePayload caps one frame's payload so a corrupt or hostile length
// prefix cannot demand an arbitrary allocation.
const maxFramePayload = 8 << 20

// frameKind maps TraceEvent.K to its wire byte and back.
func frameKind(k string) (byte, bool) {
	switch k {
	case "call":
		return 'c', true
	case "ret":
		return 'r', true
	case "stuck":
		return 's', true
	}
	return 0, false
}

func unframeKind(b byte) (string, bool) {
	switch b {
	case 'c':
		return "call", true
	case 'r':
		return "ret", true
	case 's':
		return "stuck", true
	}
	return "", false
}

// TruncatedFrameError reports a batch stream cut mid-frame: the underlying
// input ended before the frame that starts at Offset was complete. It is the
// structured form the sticky FrameReader error carries, so a consumer can
// resume or diagnose from the exact byte position.
type TruncatedFrameError struct {
	Offset int64  // byte offset of the first byte of the truncated frame
	Reason string // what was being read when the input ended
}

func (e *TruncatedFrameError) Error() string {
	return fmt.Sprintf("obsfile: truncated batch frame starting at byte %d: %s", e.Offset, e.Reason)
}

// FrameWriter encodes TraceEvents into batch frames. Events accumulate in an
// in-memory frame until Flush (or the BatchSize threshold of WriteEvent)
// emits it; Close flushes the final partial frame.
type FrameWriter struct {
	w          *bufio.Writer
	buf        []byte // current frame payload (events only; count prefixed at emit)
	count      int    // events in the current frame
	wroteMagic bool
	err        error

	// BatchSize is the automatic frame boundary for WriteEvent: a frame is
	// emitted once it holds this many events (default 512).
	BatchSize int
}

// NewFrameWriter returns a frame encoder over w.
func NewFrameWriter(w io.Writer) *FrameWriter {
	return &FrameWriter{w: bufio.NewWriter(w), BatchSize: 512}
}

func (fw *FrameWriter) magic() error {
	if fw.wroteMagic {
		return nil
	}
	fw.wroteMagic = true
	_, err := fw.w.WriteString(FrameMagic)
	return err
}

// WriteEvent appends one event, emitting a frame at each BatchSize boundary.
func (fw *FrameWriter) WriteEvent(ev TraceEvent) error {
	if fw.err != nil {
		return fw.err
	}
	k, ok := frameKind(ev.K)
	if !ok {
		fw.err = fmt.Errorf("obsfile: frame encoder: unknown event kind %q", ev.K)
		return fw.err
	}
	fw.buf = append(fw.buf, k)
	fw.buf = binary.AppendVarint(fw.buf, int64(ev.T))
	for _, s := range []string{ev.Op, ev.Res, ev.P} {
		fw.buf = binary.AppendUvarint(fw.buf, uint64(len(s)))
		fw.buf = append(fw.buf, s...)
	}
	fw.count++
	bs := fw.BatchSize
	if bs <= 0 {
		bs = 512
	}
	if fw.count >= bs {
		return fw.Flush()
	}
	return nil
}

// Flush emits the buffered events as one frame and flushes the underlying
// writer. An empty buffer emits nothing.
func (fw *FrameWriter) Flush() error {
	if fw.err != nil {
		return fw.err
	}
	if err := fw.magic(); err != nil {
		fw.err = err
		return err
	}
	if fw.count > 0 {
		// Emit: uvarint(payloadLen) · uvarint(count) · events.
		var hdr [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(hdr[:], uint64(fw.count))
		payload := n + len(fw.buf)
		var lenbuf [binary.MaxVarintLen64]byte
		ln := binary.PutUvarint(lenbuf[:], uint64(payload))
		if _, err := fw.w.Write(lenbuf[:ln]); err != nil {
			fw.err = err
			return err
		}
		if _, err := fw.w.Write(hdr[:n]); err != nil {
			fw.err = err
			return err
		}
		if _, err := fw.w.Write(fw.buf); err != nil {
			fw.err = err
			return err
		}
		fw.buf = fw.buf[:0]
		fw.count = 0
	}
	if err := fw.w.Flush(); err != nil {
		fw.err = err
		return err
	}
	return nil
}

// Close flushes the final partial frame. The underlying writer is not closed.
func (fw *FrameWriter) Close() error { return fw.Flush() }

// FrameReader decodes a batch frame stream into TraceEvents. Errors are
// sticky. Decoded strings are interned (the op/result/key vocabulary of a
// trace is tiny), so long streams decode nearly allocation-free.
type FrameReader struct {
	r        *bufio.Reader
	off      int64 // bytes consumed from r
	frameOff int64 // offset of the frame currently being decoded
	payload  []byte
	pos      int // decode position in payload
	remain   int // events remaining in the current frame
	started  bool
	err      error
	intern   map[string]string
	batch    []TraceEvent // scratch for NextBatch
}

// NewFrameReader returns a decoder over r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: bufio.NewReaderSize(r, 64*1024), intern: make(map[string]string)}
}

func (fr *FrameReader) fail(err error) error {
	fr.err = err
	return err
}

func (fr *FrameReader) truncated(reason string) error {
	return fr.fail(&TruncatedFrameError{Offset: fr.frameOff, Reason: reason})
}

// readMagic consumes and checks the stream magic. A completely empty stream
// is a clean EOF (zero events); a partial or wrong magic is an error.
func (fr *FrameReader) readMagic() error {
	fr.started = true
	fr.frameOff = fr.off
	var m [4]byte
	n, err := io.ReadFull(fr.r, m[:])
	fr.off += int64(n)
	if err == io.EOF {
		return fr.fail(io.EOF)
	}
	if err != nil {
		return fr.truncated("stream magic")
	}
	if string(m[:]) != FrameMagic {
		return fr.fail(fmt.Errorf("obsfile: not a batch frame stream (magic %q, want %q)", m[:], FrameMagic))
	}
	return nil
}

// readUvarint reads a uvarint, charging consumed bytes to the offset.
func (fr *FrameReader) readUvarint() (uint64, error) {
	v, err := binary.ReadUvarint(fr.r)
	// ReadUvarint gives no byte count; recompute from the value. Varints are
	// canonical from our encoder; for foreign input the count is only used in
	// diagnostics, so a slight drift on non-canonical input is harmless.
	if err == nil {
		n := int64(1)
		for x := v; x >= 0x80; x >>= 7 {
			n++
		}
		fr.off += n
	}
	return v, err
}

// nextFrame loads the next frame's payload. io.EOF only at a frame boundary.
func (fr *FrameReader) nextFrame() error {
	if !fr.started {
		if err := fr.readMagic(); err != nil {
			return err
		}
	}
	for {
		fr.frameOff = fr.off
		// Peek distinguishes a clean boundary EOF from a cut inside the
		// length prefix.
		if _, err := fr.r.Peek(1); err == io.EOF {
			return fr.fail(io.EOF)
		}
		size, err := fr.readUvarint()
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fr.truncated("frame length prefix")
		}
		if err != nil {
			return fr.fail(fmt.Errorf("obsfile: batch frame at byte %d: %w", fr.frameOff, err))
		}
		if size > maxFramePayload {
			return fr.fail(fmt.Errorf("obsfile: batch frame at byte %d: payload of %d bytes exceeds the %d-byte cap", fr.frameOff, size, maxFramePayload))
		}
		if size == 0 {
			continue // empty frame: tolerated, skipped
		}
		if cap(fr.payload) < int(size) {
			fr.payload = make([]byte, size)
		}
		fr.payload = fr.payload[:size]
		n, err := io.ReadFull(fr.r, fr.payload)
		fr.off += int64(n)
		if err != nil {
			return fr.truncated(fmt.Sprintf("frame payload: %d of %d bytes", n, size))
		}
		count, n2 := binary.Uvarint(fr.payload)
		if n2 <= 0 || count == 0 || count > size {
			return fr.corrupt("event count")
		}
		fr.pos = n2
		fr.remain = int(count)
		return nil
	}
}

func (fr *FrameReader) corrupt(what string) error {
	return fr.fail(fmt.Errorf("obsfile: corrupt batch frame at byte %d: bad %s", fr.frameOff, what))
}

// decodeString decodes one length-prefixed string from the payload.
func (fr *FrameReader) decodeString() (string, bool) {
	n, w := binary.Uvarint(fr.payload[fr.pos:])
	if w <= 0 {
		return "", false
	}
	fr.pos += w
	if n > uint64(len(fr.payload)-fr.pos) {
		return "", false
	}
	b := fr.payload[fr.pos : fr.pos+int(n)]
	fr.pos += int(n)
	if len(b) == 0 {
		return "", true
	}
	if s, ok := fr.intern[string(b)]; ok {
		return s, true
	}
	s := string(b)
	if len(fr.intern) < 4096 && len(s) <= 256 {
		fr.intern[s] = s
	}
	return s, true
}

// decodeEvent decodes one event from the current frame payload.
func (fr *FrameReader) decodeEvent() (TraceEvent, error) {
	if fr.pos >= len(fr.payload) {
		return TraceEvent{}, fr.corrupt("event count (payload exhausted early)")
	}
	kind, ok := unframeKind(fr.payload[fr.pos])
	if !ok {
		return TraceEvent{}, fr.corrupt("event kind byte")
	}
	fr.pos++
	t, w := binary.Varint(fr.payload[fr.pos:])
	if w <= 0 {
		return TraceEvent{}, fr.corrupt("thread varint")
	}
	fr.pos += w
	ev := TraceEvent{T: int(t), K: kind}
	if ev.Op, ok = fr.decodeString(); !ok {
		return TraceEvent{}, fr.corrupt("op string")
	}
	if ev.Res, ok = fr.decodeString(); !ok {
		return TraceEvent{}, fr.corrupt("result string")
	}
	if ev.P, ok = fr.decodeString(); !ok {
		return TraceEvent{}, fr.corrupt("partition string")
	}
	fr.remain--
	if fr.remain == 0 && fr.pos != len(fr.payload) {
		return TraceEvent{}, fr.corrupt("frame length (trailing bytes after the last event)")
	}
	return ev, nil
}

// NextBatch returns the next frame's events as one slice, reusing an internal
// scratch buffer that is only valid until the following NextBatch call.
// io.EOF at a clean frame boundary; any other error (including a truncated
// final frame) is sticky.
func (fr *FrameReader) NextBatch() ([]TraceEvent, error) {
	if fr.err != nil {
		return nil, fr.err
	}
	if err := fr.nextFrame(); err != nil {
		return nil, err
	}
	fr.batch = fr.batch[:0]
	for fr.remain > 0 {
		ev, err := fr.decodeEvent()
		if err != nil {
			return nil, err
		}
		fr.batch = append(fr.batch, ev)
	}
	return fr.batch, nil
}
