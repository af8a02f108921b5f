package eventspec

import (
	"fmt"
	"strings"
	"testing"

	"priste/internal/event"
)

func TestParseValid(t *testing.T) {
	ev, err := Parse("0-9@3-7", 100, 20)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	p, ok := ev.(*event.Presence)
	if !ok {
		t.Fatalf("got %T, want *event.Presence", ev)
	}
	start, end := p.Window()
	if start != 3 || end != 7 {
		t.Fatalf("window = [%d,%d], want [3,7]", start, end)
	}
	for s := 0; s <= 9; s++ {
		if !p.Region.Contains(s) {
			t.Fatalf("region missing state %d", s)
		}
	}
	if p.Region.Contains(10) {
		t.Fatal("region contains state 10")
	}
}

func TestParseHorizon(t *testing.T) {
	if _, err := Parse("0-9@3-7", 100, 7); err == nil {
		t.Fatal("window end 7 should be rejected for horizon 7")
	}
	// Non-positive horizon disables the bound (open-ended sessions).
	if _, err := Parse("0-9@3-7", 100, 0); err != nil {
		t.Fatalf("horizon 0 should disable the bound: %v", err)
	}
	if _, err := Parse("0-9@3-7", 100, -1); err != nil {
		t.Fatalf("horizon -1 should disable the bound: %v", err)
	}
}

// parseErrorCases are rejected by Parse over a 50-state map with
// horizon 20; FuzzEventSpec is seeded from them.
var parseErrorCases = []struct {
	spec string
	want string
}{
	{"0-9", "want LO-HI@START-END"},
	{"0-9@3-7@1-2", "want LO-HI@START-END"},
	{"9-0@3-7", "invalid range"},
	{"a-9@3-7", "invalid syntax"},
	{"0-9@7-3", "invalid range"},
	{"0-99@3-7", "outside 50-state map"},
	{"0@3-7", "want LO-HI"},
	{"0-9@0-4096", "window end 4096 exceeds the maximum 4095"},
	{"0-0@0-2000000000", "exceeds the maximum 4095"},
	{"0-0@0-99999999999999999999", "value out of range"},
}

func TestParseErrors(t *testing.T) {
	for _, c := range parseErrorCases {
		_, err := Parse(c.spec, 50, 20)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error containing %q", c.spec, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) = %v, want error containing %q", c.spec, err, c.want)
		}
	}
}

func TestParseAll(t *testing.T) {
	evs, err := ParseAll([]string{"0-3@0-2", "4-7@5-9"}, 16, 10)
	if err != nil {
		t.Fatalf("ParseAll: %v", err)
	}
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if _, err := ParseAll([]string{"0-3@0-2", "bad"}, 16, 10); err == nil {
		t.Fatal("ParseAll with a bad spec should fail")
	}
	specs := make([]string, MaxEvents+1)
	for i := range specs {
		specs[i] = "0-3@0-2"
	}
	if evs, err := ParseAll(specs[:MaxEvents], 16, 10); err != nil || len(evs) != MaxEvents {
		t.Fatalf("ParseAll(%d specs) = %d events, %v", MaxEvents, len(evs), err)
	}
	_, err = ParseAll(specs, 16, 10)
	if want := fmt.Sprintf("%d events exceed the maximum %d", MaxEvents+1, MaxEvents); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("ParseAll(%d specs) = %v, want error containing %q", MaxEvents+1, err, want)
	}
	if _, err := ParseAll([]string{fmt.Sprintf("0-3@0-%d", MaxWindowEnd)}, 16, 0); err != nil {
		t.Fatalf("window end MaxWindowEnd rejected: %v", err)
	}
}

func TestParseRange(t *testing.T) {
	lo, hi, err := ParseRange("2-5")
	if err != nil || lo != 2 || hi != 5 {
		t.Fatalf("ParseRange(2-5) = %d,%d,%v", lo, hi, err)
	}
	if _, _, err := ParseRange("5"); err == nil {
		t.Fatal("ParseRange(5) should fail")
	}
	if _, _, err := ParseRange("-1-5"); err == nil {
		t.Fatal("ParseRange(-1-5) should fail")
	}
}

// FuzzEventSpec feeds arbitrary specs, map sizes and horizons to Parse:
// it must never panic, and every accepted spec must name a non-empty
// state range inside the map and a window inside [0, MaxWindowEnd] (and
// before a positive horizon).
func FuzzEventSpec(f *testing.F) {
	f.Add("0-9@3-7", uint16(100), int16(20))
	f.Add("0-9@3-7", uint16(100), int16(0))
	f.Add(fmt.Sprintf("0-0@0-%d", MaxWindowEnd), uint16(1), int16(-1))
	for _, c := range parseErrorCases {
		f.Add(c.spec, uint16(50), int16(20))
	}
	f.Fuzz(func(t *testing.T, spec string, m uint16, horizon int16) {
		ev, err := Parse(spec, int(m), int(horizon))
		if err != nil {
			return
		}
		p, ok := ev.(*event.Presence)
		if !ok {
			t.Fatalf("Parse(%q) = %T, want *event.Presence", spec, ev)
		}
		states := p.Region.States()
		if len(states) == 0 || states[0] < 0 || states[len(states)-1] >= int(m) {
			t.Fatalf("Parse(%q, m=%d) accepted states %v", spec, m, states)
		}
		start, end := p.Window()
		if start < 0 || start > end || end > MaxWindowEnd {
			t.Fatalf("Parse(%q) accepted window [%d,%d]", spec, start, end)
		}
		if horizon > 0 && end >= int(horizon) {
			t.Fatalf("Parse(%q) accepted window end %d for horizon %d", spec, end, horizon)
		}
	})
}
