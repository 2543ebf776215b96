package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/task"
)

// binaryCodec frames envelopes as length-prefixed binary records:
//
//	u32le payload length | type byte | presence bitmap (uvarint) | fields
//
// The type byte indexes the known message types (a 0 byte escapes to an
// inline length-prefixed string for forward compatibility). The presence
// bitmap mirrors encoding/json's omitempty semantics field for field: a
// bit is set exactly when the field is non-zero, so a JSON round-trip and
// a binary round-trip of the same envelope produce identical structs —
// including the -0.0→+0.0 collapse (negative zero is "empty" to both).
// Floats travel as raw IEEE-754 little-endian bits; Bound stays a string
// (its ±Inf spelling is shared with the JSON codec via EncodeBound).
// Non-finite floats are rejected at encode, matching encoding/json.
//
// Encoding is pure append — with a warm scratch buffer the bid and quote
// paths encode with zero allocations (guarded by TestBinaryEncodeAllocs).
type binaryCodec struct{}

func (binaryCodec) Name() string { return CodecBinary }

// Field bit positions in the presence bitmap, in encoding order.
const (
	binFieldReqID = iota
	binFieldTaskID
	binFieldArrival
	binFieldRuntime
	binFieldValue
	binFieldDecay
	binFieldBound
	binFieldCohort
	binFieldClient
	binFieldSiteID
	binFieldExpectedCompletion
	binFieldExpectedPrice
	binFieldCompletedAt
	binFieldFinalPrice
	binFieldContractState
	binFieldReason
	binFieldProto
	binFieldCodec
	binFieldCodecs
	binFieldDeadline
	binFieldQueue
	binFieldRunning
	binFieldProcs
	binFieldBacklog
	binFieldFloor
	binFieldShedding
	binFieldInterval
	numBinFields
)

// binTypeCode maps a message type to its compact code; 0 is reserved for
// the inline-string escape.
func binTypeCode(t string) (byte, bool) {
	switch t {
	case TypeBid:
		return 1, true
	case TypeServerBid:
		return 2, true
	case TypeReject:
		return 3, true
	case TypeAward:
		return 4, true
	case TypeContract:
		return 5, true
	case TypeSettled:
		return 6, true
	case TypeError:
		return 7, true
	case TypeQuery:
		return 8, true
	case TypeStatus:
		return 9, true
	case TypeHello:
		return 10, true
	case TypeWelcome:
		return 11, true
	case TypeDigestSub:
		return 12, true
	case TypeDigest:
		return 13, true
	}
	return 0, false
}

var binTypeNames = [...]string{
	1: TypeBid, 2: TypeServerBid, 3: TypeReject, 4: TypeAward,
	5: TypeContract, 6: TypeSettled, 7: TypeError, 8: TypeQuery,
	9: TypeStatus, 10: TypeHello, 11: TypeWelcome,
	12: TypeDigestSub, 13: TypeDigest,
}

func (binaryCodec) Append(dst []byte, e *Envelope) ([]byte, error) {
	floats := [...]float64{e.Arrival, e.Runtime, e.Value, e.Decay,
		e.ExpectedCompletion, e.ExpectedPrice, e.CompletedAt, e.FinalPrice,
		e.Deadline, e.Backlog, e.Floor, e.Interval}
	for _, f := range floats {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return dst, fmt.Errorf("wire: unsupported value %v in binary envelope", f)
		}
	}

	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length prefix, backfilled below

	if code, ok := binTypeCode(e.Type); ok {
		dst = append(dst, code)
	} else {
		dst = append(dst, 0)
		dst = appendBinString(dst, e.Type)
	}

	var bits uint64
	setIf := func(cond bool, field int) {
		if cond {
			bits |= 1 << field
		}
	}
	setIf(e.ReqID != "", binFieldReqID)
	setIf(e.TaskID != 0, binFieldTaskID)
	setIf(e.Arrival != 0, binFieldArrival)
	setIf(e.Runtime != 0, binFieldRuntime)
	setIf(e.Value != 0, binFieldValue)
	setIf(e.Decay != 0, binFieldDecay)
	setIf(e.Bound != "", binFieldBound)
	setIf(e.Cohort != "", binFieldCohort)
	setIf(e.Client != 0, binFieldClient)
	setIf(e.SiteID != "", binFieldSiteID)
	setIf(e.ExpectedCompletion != 0, binFieldExpectedCompletion)
	setIf(e.ExpectedPrice != 0, binFieldExpectedPrice)
	setIf(e.CompletedAt != 0, binFieldCompletedAt)
	setIf(e.FinalPrice != 0, binFieldFinalPrice)
	setIf(e.ContractState != "", binFieldContractState)
	setIf(e.Reason != "", binFieldReason)
	setIf(e.Proto != 0, binFieldProto)
	setIf(e.Codec != "", binFieldCodec)
	setIf(len(e.Codecs) != 0, binFieldCodecs)
	setIf(e.Deadline != 0, binFieldDeadline)
	setIf(e.Queue != 0, binFieldQueue)
	setIf(e.Running != 0, binFieldRunning)
	setIf(e.Procs != 0, binFieldProcs)
	setIf(e.Backlog != 0, binFieldBacklog)
	setIf(e.Floor != 0, binFieldFloor)
	setIf(e.Shedding, binFieldShedding)
	setIf(e.Interval != 0, binFieldInterval)
	dst = binary.AppendUvarint(dst, bits)

	has := func(field int) bool { return bits&(1<<field) != 0 }
	if has(binFieldReqID) {
		dst = appendBinString(dst, e.ReqID)
	}
	if has(binFieldTaskID) {
		dst = binary.AppendUvarint(dst, uint64(e.TaskID))
	}
	if has(binFieldArrival) {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.Arrival))
	}
	if has(binFieldRuntime) {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.Runtime))
	}
	if has(binFieldValue) {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.Value))
	}
	if has(binFieldDecay) {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.Decay))
	}
	if has(binFieldBound) {
		dst = appendBinString(dst, e.Bound)
	}
	if has(binFieldCohort) {
		dst = appendBinString(dst, e.Cohort)
	}
	if has(binFieldClient) {
		dst = binary.AppendVarint(dst, int64(e.Client))
	}
	if has(binFieldSiteID) {
		dst = appendBinString(dst, e.SiteID)
	}
	if has(binFieldExpectedCompletion) {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.ExpectedCompletion))
	}
	if has(binFieldExpectedPrice) {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.ExpectedPrice))
	}
	if has(binFieldCompletedAt) {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.CompletedAt))
	}
	if has(binFieldFinalPrice) {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.FinalPrice))
	}
	if has(binFieldContractState) {
		dst = appendBinString(dst, e.ContractState)
	}
	if has(binFieldReason) {
		dst = appendBinString(dst, e.Reason)
	}
	if has(binFieldProto) {
		dst = binary.AppendVarint(dst, int64(e.Proto))
	}
	if has(binFieldCodec) {
		dst = appendBinString(dst, e.Codec)
	}
	if has(binFieldCodecs) {
		dst = binary.AppendUvarint(dst, uint64(len(e.Codecs)))
		for _, c := range e.Codecs {
			dst = appendBinString(dst, c)
		}
	}
	if has(binFieldDeadline) {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.Deadline))
	}
	if has(binFieldQueue) {
		dst = binary.AppendVarint(dst, int64(e.Queue))
	}
	if has(binFieldRunning) {
		dst = binary.AppendVarint(dst, int64(e.Running))
	}
	if has(binFieldProcs) {
		dst = binary.AppendVarint(dst, int64(e.Procs))
	}
	if has(binFieldBacklog) {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.Backlog))
	}
	if has(binFieldFloor) {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.Floor))
	}
	// Shedding is a boolean: the presence bit is the value.
	if has(binFieldInterval) {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.Interval))
	}

	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst, nil
}

func (binaryCodec) Read(br *bufio.Reader, max int, scratch *[]byte, e *Envelope) error {
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return err // clean io.EOF between frames stays io.EOF
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n == 0 {
		return &ProtocolError{Err: errors.New("wire: empty binary frame")}
	}
	if max <= 0 {
		max = DefaultMaxFrameBytes
	}
	if n > max {
		// The length prefix tells us exactly how much to skip, so the
		// stream stays synchronized and the connection survives.
		if _, err := io.CopyN(io.Discard, br, int64(n)); err != nil {
			return err
		}
		return ErrTooLong
	}
	buf := *scratch
	if cap(buf) < n {
		buf = make([]byte, n)
		*scratch = buf
	}
	buf = buf[:n]
	if _, err := io.ReadFull(br, buf); err != nil {
		return err
	}
	*e = Envelope{}
	if err := decodeBinary(buf, e); err != nil {
		return &ProtocolError{Err: fmt.Errorf("wire: %w", err)}
	}
	return nil
}

// binReader walks a binary payload with a sticky error.
type binReader struct {
	b   []byte
	off int
	err error
}

func (r *binReader) fail(msg string) {
	if r.err == nil {
		r.err = errors.New(msg)
	}
}

func (r *binReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail("binary envelope truncated")
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *binReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad uvarint in binary envelope")
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad varint in binary envelope")
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) float() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b)-r.off < 8 {
		r.fail("binary envelope truncated")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

func (r *binReader) string() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail("string length exceeds binary envelope")
		return ""
	}
	v := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return v
}

func appendBinString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func decodeBinary(b []byte, e *Envelope) error {
	*e = Envelope{}
	r := &binReader{b: b}
	code := r.byte()
	if code == 0 {
		e.Type = r.string()
	} else if int(code) < len(binTypeNames) && binTypeNames[code] != "" {
		e.Type = binTypeNames[code]
	} else {
		return fmt.Errorf("unknown binary message code %d", code)
	}
	bits := r.uvarint()
	if bits>>numBinFields != 0 {
		return fmt.Errorf("unknown binary envelope fields 0x%x", bits)
	}
	has := func(field int) bool { return bits&(1<<field) != 0 }
	if has(binFieldReqID) {
		e.ReqID = r.string()
	}
	if has(binFieldTaskID) {
		e.TaskID = task.ID(r.uvarint())
	}
	if has(binFieldArrival) {
		e.Arrival = r.float()
	}
	if has(binFieldRuntime) {
		e.Runtime = r.float()
	}
	if has(binFieldValue) {
		e.Value = r.float()
	}
	if has(binFieldDecay) {
		e.Decay = r.float()
	}
	if has(binFieldBound) {
		e.Bound = r.string()
	}
	if has(binFieldCohort) {
		e.Cohort = r.string()
	}
	if has(binFieldClient) {
		e.Client = int(r.varint())
	}
	if has(binFieldSiteID) {
		e.SiteID = r.string()
	}
	if has(binFieldExpectedCompletion) {
		e.ExpectedCompletion = r.float()
	}
	if has(binFieldExpectedPrice) {
		e.ExpectedPrice = r.float()
	}
	if has(binFieldCompletedAt) {
		e.CompletedAt = r.float()
	}
	if has(binFieldFinalPrice) {
		e.FinalPrice = r.float()
	}
	if has(binFieldContractState) {
		e.ContractState = r.string()
	}
	if has(binFieldReason) {
		e.Reason = r.string()
	}
	if has(binFieldProto) {
		e.Proto = int(r.varint())
	}
	if has(binFieldCodec) {
		e.Codec = r.string()
	}
	if has(binFieldCodecs) {
		n := r.uvarint()
		if r.err == nil && n > uint64(len(r.b)-r.off) {
			return errors.New("codec list length exceeds binary envelope")
		}
		if r.err == nil {
			e.Codecs = make([]string, 0, n)
			for i := uint64(0); i < n; i++ {
				e.Codecs = append(e.Codecs, r.string())
			}
		}
	}
	if has(binFieldDeadline) {
		e.Deadline = r.float()
	}
	if has(binFieldQueue) {
		e.Queue = int(r.varint())
	}
	if has(binFieldRunning) {
		e.Running = int(r.varint())
	}
	if has(binFieldProcs) {
		e.Procs = int(r.varint())
	}
	if has(binFieldBacklog) {
		e.Backlog = r.float()
	}
	if has(binFieldFloor) {
		e.Floor = r.float()
	}
	e.Shedding = has(binFieldShedding)
	if has(binFieldInterval) {
		e.Interval = r.float()
	}
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("%d trailing bytes in binary envelope", len(r.b)-r.off)
	}
	return nil
}
