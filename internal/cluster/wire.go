package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"condsel/internal/engine"
	"condsel/internal/sit"
)

// Wire codec. Shard replication ships the existing SITSNAP pool payload
// (sit.Pool.Encode JSON — the same bytes the lifecycle checkpointer
// checksums to disk) inside one length-prefixed, CRC-protected frame:
//
//	magic   [4]byte  "SITW"
//	version uint8    1
//	epoch   uint64   sender's rebuild epoch        (big-endian)
//	gen     uint64   shard pool content generation (big-endian)
//	nodeLen uint16   sender id length              (big-endian)
//	node    []byte   sender id (<= MaxNodeIDLen)
//	payLen  uint32   payload length                (big-endian, <= MaxFramePayload)
//	crc     uint32   CRC-32 (IEEE) of payload      (big-endian)
//	payload []byte
//
// The decoder trusts nothing: a wrong magic, an unknown version, a length
// past the caps, a short read or a CRC mismatch is an error, never a panic
// and never an accepted frame — the property FuzzSnapshotWire hammers. A
// frame read back always re-encodes to the identical bytes, so replication
// can be proxied or store-and-forwarded without silent mutation.

const (
	// wireMagic opens every frame.
	wireMagic = "SITW"
	// wireVersion is the frame layout version.
	wireVersion = 1
	// MaxNodeIDLen bounds the sender id carried per frame.
	MaxNodeIDLen = 256
	// MaxFramePayload bounds the shard payload, guarding the decoder
	// against length-overflow allocation attacks (a grown 100+-table pool
	// serializes to a few MB; 64 MiB is far above any real shard).
	MaxFramePayload = 64 << 20
)

// Frame is one replication message: the sender, its fencing stamp, and the
// shard pool payload (sit.Pool.Encode bytes). Request frames carry an empty
// payload.
type Frame struct {
	Node    NodeID
	Stamp   Stamp
	Payload []byte
}

// WriteFrame encodes the frame onto w.
func WriteFrame(w io.Writer, f *Frame) error {
	if len(f.Node) == 0 || len(f.Node) > MaxNodeIDLen {
		return fmt.Errorf("cluster: frame node id length %d out of range [1,%d]", len(f.Node), MaxNodeIDLen)
	}
	if len(f.Payload) > MaxFramePayload {
		return fmt.Errorf("cluster: frame payload %d bytes exceeds %d", len(f.Payload), MaxFramePayload)
	}
	bw := bufio.NewWriter(w)
	bw.WriteString(wireMagic)
	bw.WriteByte(wireVersion)
	var hdr [8]byte
	binary.BigEndian.PutUint64(hdr[:], f.Stamp.Epoch.Count())
	bw.Write(hdr[:])
	binary.BigEndian.PutUint64(hdr[:], f.Stamp.Gen)
	bw.Write(hdr[:])
	binary.BigEndian.PutUint16(hdr[:2], uint16(len(f.Node)))
	bw.Write(hdr[:2])
	bw.WriteString(string(f.Node))
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(f.Payload)))
	bw.Write(hdr[:4])
	binary.BigEndian.PutUint32(hdr[:4], crc32.ChecksumIEEE(f.Payload))
	bw.Write(hdr[:4])
	bw.Write(f.Payload)
	return bw.Flush()
}

// EncodeFrame renders the frame to a byte slice.
func EncodeFrame(f *Frame) ([]byte, error) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, f); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ReadFrame decodes one frame from r. Every malformation — truncation
// anywhere, an oversized length, a checksum mismatch — returns an error;
// the function never panics and never returns a frame whose payload bytes
// were not exactly checksummed by the sender.
func ReadFrame(r io.Reader) (*Frame, error) {
	return ReadFrameLimit(r, MaxFramePayload)
}

// ReadFrameLimit is ReadFrame with a caller-chosen payload cap, checked
// against the declared length BEFORE any payload allocation. Readers of
// frames that are defined to be small — the replication listener's request
// frames carry an empty payload — pass a tight cap so an unauthenticated
// sender cannot spend a declared length as a MaxFramePayload-sized
// allocation. Caps above MaxFramePayload are clamped to it.
func ReadFrameLimit(r io.Reader, maxPayload int) (*Frame, error) {
	if maxPayload < 0 || maxPayload > MaxFramePayload {
		maxPayload = MaxFramePayload
	}
	var fixed [4 + 1 + 8 + 8 + 2]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return nil, fmt.Errorf("cluster: frame header: %w", noEOF(err))
	}
	if string(fixed[:4]) != wireMagic {
		return nil, fmt.Errorf("cluster: bad frame magic %q", fixed[:4])
	}
	if fixed[4] != wireVersion {
		return nil, fmt.Errorf("cluster: unsupported frame version %d", fixed[4])
	}
	stamp := Stamp{
		Epoch: EpochOf(binary.BigEndian.Uint64(fixed[5:13])),
		Gen:   binary.BigEndian.Uint64(fixed[13:21]),
	}
	nodeLen := int(binary.BigEndian.Uint16(fixed[21:23]))
	if nodeLen == 0 || nodeLen > MaxNodeIDLen {
		return nil, fmt.Errorf("cluster: frame node id length %d out of range [1,%d]", nodeLen, MaxNodeIDLen)
	}
	node := make([]byte, nodeLen)
	if _, err := io.ReadFull(r, node); err != nil {
		return nil, fmt.Errorf("cluster: frame node id: %w", noEOF(err))
	}
	var tail [8]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return nil, fmt.Errorf("cluster: frame lengths: %w", noEOF(err))
	}
	payLen := binary.BigEndian.Uint32(tail[:4])
	wantCRC := binary.BigEndian.Uint32(tail[4:])
	if uint64(payLen) > uint64(maxPayload) {
		return nil, fmt.Errorf("cluster: frame payload %d bytes exceeds %d", payLen, maxPayload)
	}
	payload := make([]byte, int(payLen))
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("cluster: frame payload: %w", noEOF(err))
	}
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, fmt.Errorf("cluster: frame checksum mismatch: got %08x want %08x", got, wantCRC)
	}
	return &Frame{Node: NodeID(node), Stamp: stamp, Payload: payload}, nil
}

// noEOF maps a bare io.EOF mid-frame to io.ErrUnexpectedEOF: from the
// decoder's point of view the stream ended inside a frame either way, and
// callers must never mistake it for a clean end-of-stream.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// DecodePool materializes the frame's payload as a statistics pool against
// the catalog.
func (f *Frame) DecodePool(cat *engine.Catalog) (*sit.Pool, error) {
	return sit.ReadPool(cat, bytes.NewReader(f.Payload))
}
