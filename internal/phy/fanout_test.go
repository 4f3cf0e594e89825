package phy

import (
	"slices"
	"testing"

	"beaconsec/internal/geo"
	"beaconsec/internal/sim"
)

// TestOneEventPerArrivalInstant pins the batched fan-out: at 150 ft,
// propagation rounds to 0 cycles below 66.7 ft and to 1 cycle above, so
// a frame has at most two arrival instants and leaves exactly two
// scheduler events however many radios hear it. Radio indices
// interleave the near and far receivers, and receptions must still come
// instant by instant, in ascending index within each instant.
func TestOneEventPerArrivalInstant(t *testing.T) {
	type heard struct {
		radio int
		end   sim.Time
	}
	sched, m := newTestMedium(Config{Range: 150})
	tx := m.NewRadio(geo.Point{X: 0, Y: 0})
	var order []heard
	xs := []float64{100, 10, 120, 30, 140, 50, 80, 60} // far, near, …
	for i, x := range xs {
		m.NewRadio(geo.Point{X: x, Y: 0}).SetHandler(func(rec Reception) {
			order = append(order, heard{i + 1, rec.End()})
		})
	}
	info := m.Transmit(tx, frame(16))
	if got := sched.Pending(); got != 2 {
		t.Fatalf("one transmit to %d receivers left %d pending events, want 2", len(xs), got)
	}
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if fired := sched.Fired(); fired != 2 {
		t.Errorf("fan-out fired %d events, want 2", fired)
	}
	want := []heard{
		{2, info.AirEnd}, {4, info.AirEnd}, {6, info.AirEnd}, {8, info.AirEnd},
		{1, info.AirEnd + 1}, {3, info.AirEnd + 1}, {5, info.AirEnd + 1}, {7, info.AirEnd + 1},
	}
	if !slices.Equal(order, want) {
		t.Fatalf("reception order %v, want %v", order, want)
	}
	if d := m.Stats().Deliveries; d != uint64(len(xs)) {
		t.Errorf("Deliveries = %d, want %d", d, len(xs))
	}
}

// TestHandlerTransmitMidBatch has the first receiver of an arrival
// instant reply synchronously from its handler, in the middle of the
// instant's walk. Its reply starts on air at the current instant, after
// the frame has finished arriving everywhere, so the later receivers of
// the same instant still decode the original frame, and every radio
// then hears the reply.
func TestHandlerTransmitMidBatch(t *testing.T) {
	sched, m := newTestMedium(Config{Range: 150})
	tx := m.NewRadio(geo.Point{X: 0, Y: 0})
	type heard struct {
		radio int
		data0 byte
	}
	var log []heard
	var radios []*Radio
	for i, x := range []float64{100, 110, 120} { // one instant: prop = 1
		r := m.NewRadio(geo.Point{X: x, Y: 0})
		r.SetHandler(func(rec Reception) {
			log = append(log, heard{i + 1, rec.Frame.Data[0]})
			if i == 0 && rec.Frame.Data[0] == 1 {
				m.Transmit(radios[0], Frame{Data: []byte{2, 0, 0, 0}})
			}
		})
		radios = append(radios, r)
	}
	m.Transmit(tx, Frame{Data: []byte{1, 0, 0, 0}})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	want := []heard{{1, 1}, {2, 1}, {3, 1}, {2, 2}, {3, 2}}
	if !slices.Equal(log, want) {
		t.Fatalf("receptions %v, want %v", log, want)
	}
	if s := m.Stats(); s.Collisions != 0 || s.HalfDuplex != 0 {
		t.Errorf("mid-batch reply corrupted frames: %+v", s)
	}
}
