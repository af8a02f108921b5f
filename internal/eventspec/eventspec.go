// Package eventspec parses the compact textual event specifications shared
// by the priste CLI and the pristed server. A spec names one PRESENCE
// event as "LO-HI@START-END": protect the region of states LO..HI
// (0-based, inclusive, row-major over the map) during timestamps
// START..END (0-based, inclusive).
//
// Specs arrive from untrusted request bodies, and the world model built
// for an event costs memory linear in its window end and in the number of
// events, so both are bounded here, before any model is compiled.
package eventspec

import (
	"fmt"
	"strconv"
	"strings"

	"priste/internal/event"
	"priste/internal/grid"
)

// MaxWindowEnd is the largest accepted event window end. Compiling an
// event allocates 2·(END+1) m-vectors of suffix products, so an
// unbounded END would let one spec exhaust memory.
const MaxWindowEnd = 4095

// MaxEvents is the largest number of specs ParseAll accepts. Every
// session keeps several m×m operators per event.
const MaxEvents = 64

// Parse parses one "LO-HI@START-END" PRESENCE spec over an m-state map.
// The window must end at or before MaxWindowEnd and, when horizon > 0,
// before horizon; a non-positive horizon disables the horizon bound
// (open-ended sessions).
func Parse(spec string, m, horizon int) (event.Event, error) {
	parts := strings.Split(spec, "@")
	if len(parts) != 2 {
		return nil, fmt.Errorf("eventspec: %q: want LO-HI@START-END", spec)
	}
	lo, hi, err := ParseRange(parts[0])
	if err != nil {
		return nil, fmt.Errorf("eventspec: %q states: %w", spec, err)
	}
	start, end, err := ParseRange(parts[1])
	if err != nil {
		return nil, fmt.Errorf("eventspec: %q window: %w", spec, err)
	}
	if hi >= m {
		return nil, fmt.Errorf("eventspec: %q: state %d outside %d-state map", spec, hi, m)
	}
	if end > MaxWindowEnd {
		return nil, fmt.Errorf("eventspec: %q: window end %d exceeds the maximum %d", spec, end, MaxWindowEnd)
	}
	if horizon > 0 && end >= horizon {
		return nil, fmt.Errorf("eventspec: %q: window end %d outside horizon %d", spec, end, horizon)
	}
	region := grid.NewRegion(m)
	for s := lo; s <= hi; s++ {
		region.Add(s)
	}
	return event.NewPresence(region, start, end)
}

// ParseAll parses a list of at most MaxEvents specs with Parse.
func ParseAll(specs []string, m, horizon int) ([]event.Event, error) {
	if len(specs) > MaxEvents {
		return nil, fmt.Errorf("eventspec: %d events exceed the maximum %d", len(specs), MaxEvents)
	}
	out := make([]event.Event, 0, len(specs))
	for _, spec := range specs {
		ev, err := Parse(spec, m, horizon)
		if err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
	return out, nil
}

// ListFlag collects repeated -event command-line flags (flag.Value).
type ListFlag []string

// String joins the collected specs.
func (e *ListFlag) String() string { return strings.Join(*e, ";") }

// Set appends one spec.
func (e *ListFlag) Set(v string) error {
	*e = append(*e, v)
	return nil
}

// ParseRange parses "LO-HI" into a non-empty inclusive integer range with
// 0 <= LO <= HI.
func ParseRange(s string) (lo, hi int, err error) {
	parts := strings.Split(s, "-")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("want LO-HI, got %q", s)
	}
	if lo, err = strconv.Atoi(parts[0]); err != nil {
		return 0, 0, err
	}
	if hi, err = strconv.Atoi(parts[1]); err != nil {
		return 0, 0, err
	}
	if lo < 0 || hi < lo {
		return 0, 0, fmt.Errorf("invalid range %d-%d", lo, hi)
	}
	return lo, hi, nil
}
