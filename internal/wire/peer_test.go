package wire_test

import (
	"bytes"
	"testing"

	"omniware/internal/wire"
)

func TestPeerFrameRoundTrip(t *testing.T) {
	const key = "k1|deadbeef|mips|00000000.00000000.00000000.00000000|sfi=true"
	payload := []byte("opaque owp bytes")
	frame, err := wire.EncodePeerFrame(key, payload)
	if err != nil {
		t.Fatal(err)
	}
	gotKey, gotPay, err := wire.DecodePeerFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if gotKey != key || !bytes.Equal(gotPay, payload) {
		t.Fatalf("round trip lost data: key %q payload %q", gotKey, gotPay)
	}
}

func TestPeerFrameRejects(t *testing.T) {
	frame, err := wire.EncodePeerFrame("k1|aa|mips|x|sfi=true", []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	flip := func(off int, bit byte) []byte {
		b := append([]byte(nil), frame...)
		b[off] ^= bit
		return b
	}
	cases := map[string][]byte{
		"empty":         nil,
		"bad-magic":     flip(0, 0x20),
		"bad-version":   flip(4, 0x01),
		"bad-crc":       flip(16, 0x01),
		"key-flip":      flip(20, 0x01), // body starts at 20
		"payload-flip":  flip(len(frame)-1, 0x01),
		"truncated":     frame[:len(frame)-1],
		"trailing-byte": append(append([]byte(nil), frame...), 0),
	}
	for name, data := range cases {
		if _, _, err := wire.DecodePeerFrame(data); err == nil {
			t.Errorf("%s: corrupt peer frame accepted", name)
		}
	}
	if _, err := wire.EncodePeerFrame("", nil); err == nil {
		t.Error("EncodePeerFrame accepted an empty key")
	}
}

// FuzzDecodePeerFrame: the cluster peer envelope faces untrusted
// network bytes like the module decoder, and gets the same contract —
// any input either errors or re-frames to itself.
func FuzzDecodePeerFrame(f *testing.F) {
	if frame, err := wire.EncodePeerFrame("k1|seed", []byte("payload")); err == nil {
		f.Add(frame)
	}
	f.Add([]byte(wire.PeerMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		key, payload, err := wire.DecodePeerFrame(data)
		if err != nil {
			return
		}
		frame, err := wire.EncodePeerFrame(key, payload)
		if err != nil {
			t.Fatalf("decoded frame fails to re-encode: %v", err)
		}
		k2, p2, err := wire.DecodePeerFrame(frame)
		if err != nil || k2 != key || !bytes.Equal(p2, payload) {
			t.Fatalf("decode/encode/decode not a fixed point: %v", err)
		}
	})
}
