// Package noc models the on-chip interconnect of the CellDTA machine:
// an EIB-like set of parallel buses (paper Table 4: 4 buses, 8 bytes per
// cycle each, 32 bytes per cycle aggregate) carrying both the DTA
// scheduler protocol (FALLOC/FFREE/remote stores) and all memory traffic
// (blocking READ/WRITE accesses and DMA block transfers).
//
// Arbitration is FIFO in send order over identical buses, so a message's
// bus, grant cycle and delivery cycle are fixed the moment it is sent:
// Network.Send works them out. What happens next depends on the kind of
// the destination, fixed when it is registered:
//
//   - a ticked endpoint (Register, Endpoint) has its message kept in the
//     network's delivery heap and handed to Deliver by the network's own
//     tick on the delivery cycle — one engine event per message. The
//     network is the engine's first component, so the Deliver runs before
//     anything else on that cycle; the LSE, MFC, DSE and PPE need that,
//     because their Deliver acts (writes the local store, moves an inbox
//     high-water mark or a back-pressure threshold, sends);
//   - a timed endpoint (RegisterTimed, TimedEndpoint) is handed the
//     message by Send itself, stamped with its delivery cycle and send
//     sequence, and consumes it in its own tick at or after that cycle —
//     no network event at all. Main memory and the SPUs are timed: their
//     delivery only ever queued the message and asked for a tick, and
//     between them they take both legs of every blocking READ.
//
// The tick-driven arbiter all of this replaced — one tick to grant a
// bus, one to deliver — lives on as the reference model of the package's
// tests, which hold both endpoint kinds against it.
package noc

import "fmt"

// Kind is the protocol message type. The interconnect itself treats
// messages as opaque; kinds are defined centrally here so endpoints agree
// on the protocol header.
type Kind uint8

const (
	KindInvalid Kind = iota

	// Scalar main-memory access (blocking READ / posted WRITE).
	KindMemRead32  // A=addr, B=reqID; reply KindMemReadResp
	KindMemRead64  // A=addr, B=reqID
	KindMemWrite32 // A=addr, B=value (posted, no reply)
	KindMemWrite64 // A=addr, B=value
	KindMemReadResp

	// DMA block transfer (MFC <-> memory).
	KindMemBlockRead  // A=addr, B=bytes, C=cmdID: memory streams BlockData
	KindMemBlockData  // A=addr, C=cmdID, D=offset, Data=payload
	KindMemBlockWrite // A=addr, C=cmdID, D=offset, Data=payload (last: B=1)
	KindMemBlockAck   // C=cmdID: all packets of a PUT are in memory

	// DTA scheduler protocol.
	KindFallocReq   // SPU/PPE -> DSE. A=template, B=sc, C=reqID, D=origin SPE (or PPE id)
	KindFallocFwd   // DSE -> chosen LSE. same fields
	KindFallocResp  // LSE -> origin. A=FP handle, C=reqID
	KindFrameStore  // producer -> consumer LSE. A=FP, B=value, C=slot
	KindFrameFreed  // LSE -> DSE: a frame was released
	KindMailboxPost // any -> PPE. B=value, C=slot
	KindVFPRelease  // frame owner -> VFP owner: binding A can be dropped
)

var kindNames = map[Kind]string{
	KindMemRead32:   "mem-read32",
	KindMemRead64:   "mem-read64",
	KindMemWrite32:  "mem-write32",
	KindMemWrite64:  "mem-write64",
	KindMemReadResp: "mem-read-resp",

	KindMemBlockRead:  "mem-block-read",
	KindMemBlockData:  "mem-block-data",
	KindMemBlockWrite: "mem-block-write",
	KindMemBlockAck:   "mem-block-ack",

	KindFallocReq:   "falloc-req",
	KindFallocFwd:   "falloc-fwd",
	KindFallocResp:  "falloc-resp",
	KindFrameStore:  "frame-store",
	KindFrameFreed:  "frame-freed",
	KindMailboxPost: "mailbox-post",
	KindVFPRelease:  "vfp-release",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// HeaderBytes is the wire overhead of every message (routing + kind +
// request matching).
const HeaderBytes = 16

// Message is one interconnect transaction. A, B, C, D are protocol
// fields whose meaning depends on Kind; Data carries DMA payloads. Pad
// adds payload bytes to the wire accounting without materialising them
// — scalar read responses model their data payload this way instead of
// allocating a buffer nobody reads.
type Message struct {
	Src, Dst int
	Kind     Kind
	Pad      int32
	A, B     int64
	C, D     int64
	Data     []byte
}

// WireSize returns the number of bytes the message occupies on a bus.
func (m Message) WireSize() int {
	return HeaderBytes + len(m.Data) + int(m.Pad)
}

func (m Message) String() string {
	return fmt.Sprintf("%s %d->%d A=%#x B=%d C=%d D=%d len=%d",
		m.Kind, m.Src, m.Dst, m.A, m.B, m.C, m.D, len(m.Data))
}
