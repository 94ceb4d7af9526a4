package cluster

import (
	"bytes"
	"encoding/binary"
	"testing"
)

func mustFrameBytes(t testing.TB, f *Frame) []byte {
	t.Helper()
	b, err := EncodeFrame(f)
	if err != nil {
		t.Fatalf("EncodeFrame: %v", err)
	}
	return b
}

// TestWireRoundTrip: encode → decode returns the identical frame, and the
// canonical encoding is stable.
func TestWireRoundTrip(t *testing.T) {
	f := &Frame{Node: "node-1", Stamp: Stamp{Epoch: EpochOf(3), Gen: 42}, Payload: []byte(`{"version":1}`)}
	wire := mustFrameBytes(t, f)
	got, err := ReadFrame(bytes.NewReader(wire))
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if got.Node != f.Node || got.Stamp != f.Stamp || !bytes.Equal(got.Payload, f.Payload) {
		t.Fatalf("round trip mutated the frame: %+v vs %+v", got, f)
	}
	if re := mustFrameBytes(t, got); !bytes.Equal(re, wire) {
		t.Fatal("re-encoding is not byte-identical")
	}
}

// TestWireRejectsTruncation: the decoder errors (never panics, never
// accepts) at every possible truncation point.
func TestWireRejectsTruncation(t *testing.T) {
	wire := mustFrameBytes(t, &Frame{Node: "n", Stamp: Stamp{EpochOf(1), 1}, Payload: []byte("payload-bytes")})
	for cut := 0; cut < len(wire); cut++ {
		if _, err := ReadFrame(bytes.NewReader(wire[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(wire))
		}
	}
}

// TestWireRejectsCorruption: any single flipped byte is refused — magic,
// version, lengths and payload are all covered by structural checks or the
// CRC. (Flips confined to the stamp bytes decode fine — the stamp is
// fenced by the generation vector, not the codec — so those offsets are
// skipped.)
func TestWireRejectsCorruption(t *testing.T) {
	f := &Frame{Node: "node-2", Stamp: Stamp{Epoch: EpochOf(7), Gen: 9}, Payload: []byte(`{"version":1,"sits":[]}`)}
	wire := mustFrameBytes(t, f)
	const stampStart, stampEnd = 5, 21 // epoch+gen field region
	for i := 0; i < len(wire); i++ {
		if i >= stampStart && i < stampEnd {
			continue
		}
		mut := append([]byte(nil), wire...)
		mut[i] ^= 0x40
		got, err := ReadFrame(bytes.NewReader(mut))
		if err != nil {
			continue
		}
		// A flip the decoder accepted must not have changed what the
		// sender checksummed (e.g. a flip in the node-id also flips the
		// id it reports — structural fields are covered by re-encoding).
		if bytes.Equal(mustFrameBytes(t, got), wire) {
			t.Fatalf("flip at byte %d silently accepted with original content", i)
		}
	}
}

// TestWireRejectsOversizedLengths: length fields past the caps are refused
// before any allocation of that size.
func TestWireRejectsOversizedLengths(t *testing.T) {
	wire := mustFrameBytes(t, &Frame{Node: "n", Stamp: Stamp{EpochOf(1), 1}, Payload: []byte("x")})
	// Node-id length field sits at offset 21.
	mut := append([]byte(nil), wire...)
	binary.BigEndian.PutUint16(mut[21:23], MaxNodeIDLen+1)
	if _, err := ReadFrame(bytes.NewReader(mut)); err == nil {
		t.Fatal("oversized node-id length accepted")
	}
	// Payload length field sits right after the 1-byte node id.
	mut = append([]byte(nil), wire...)
	binary.BigEndian.PutUint32(mut[24:28], MaxFramePayload+1)
	if _, err := ReadFrame(bytes.NewReader(mut)); err == nil {
		t.Fatal("oversized payload length accepted")
	}
}

// TestReadFrameLimit: the per-call payload cap is checked against the
// declared length before any payload allocation, admits frames at or under
// it, and clamps to MaxFramePayload rather than widening past it.
func TestReadFrameLimit(t *testing.T) {
	empty := mustFrameBytes(t, &Frame{Node: "node-1", Stamp: Stamp{EpochOf(1), 1}})
	if _, err := ReadFrameLimit(bytes.NewReader(empty), 0); err != nil {
		t.Fatalf("empty-payload frame refused under cap 0: %v", err)
	}
	loaded := mustFrameBytes(t, &Frame{Node: "node-1", Stamp: Stamp{EpochOf(1), 1}, Payload: []byte("shard-bytes")})
	if _, err := ReadFrameLimit(bytes.NewReader(loaded), 0); err == nil {
		t.Fatal("cap-0 read accepted a frame with a payload")
	}
	if _, err := ReadFrameLimit(bytes.NewReader(loaded), len("shard-bytes")); err != nil {
		t.Fatalf("frame at exactly the cap refused: %v", err)
	}
	// The declared length alone must trigger the rejection: truncate the
	// stream right after the length fields so only the cap check can fire.
	hdrOnly := loaded[:4+1+8+8+2+len("node-1")+8]
	if _, err := ReadFrameLimit(bytes.NewReader(hdrOnly), 4); err == nil {
		t.Fatal("declared payload length over the cap accepted")
	}
	// Caps past MaxFramePayload clamp to it instead of widening the global
	// bound.
	huge := append([]byte(nil), loaded...)
	binary.BigEndian.PutUint32(huge[4+1+8+8+2+len("node-1"):], MaxFramePayload+1)
	if _, err := ReadFrameLimit(bytes.NewReader(huge), MaxFramePayload*2); err == nil {
		t.Fatal("cap above MaxFramePayload widened the global bound")
	}
}

// FuzzSnapshotWire hammers the wire decoder with arbitrary bytes: it must
// never panic, and anything it accepts must re-encode canonically to
// exactly the bytes it consumed (so a corrupt frame can never round-trip
// as valid).
func FuzzSnapshotWire(f *testing.F) {
	valid := func(node string, st Stamp, payload []byte) []byte {
		b, err := EncodeFrame(&Frame{Node: NodeID(node), Stamp: st, Payload: payload})
		if err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		return b
	}
	full := valid("node-0", Stamp{Epoch: EpochOf(2), Gen: 17}, []byte(`{"version":1,"sits":[{"attr":"t.a"}]}`))
	f.Add(full)
	f.Add(valid("n", Stamp{}, nil))
	f.Add(full[:len(full)/2]) // torn stream
	f.Add(full[:4+1+8+8+2])   // header only
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)-1] ^= 0xff // payload corruption under an intact CRC
	f.Add(flipped)
	f.Add([]byte("SITW")) // bare magic
	f.Add([]byte{})       // empty stream

	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return // rejected is always fine; panics fail the fuzzer by themselves
		}
		re, err := EncodeFrame(frame)
		if err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		if len(re) > len(data) || !bytes.Equal(re, data[:len(re)]) {
			t.Fatalf("accepted frame re-encodes to different bytes than consumed")
		}
		again, err := ReadFrame(bytes.NewReader(re))
		if err != nil {
			t.Fatalf("canonical re-encoding refused: %v", err)
		}
		if again.Node != frame.Node || again.Stamp != frame.Stamp || !bytes.Equal(again.Payload, frame.Payload) {
			t.Fatal("second decode disagrees with first")
		}
	})
}
