package strikes

import (
	"strings"
	"testing"
)

func TestStrikeCount(t *testing.T) {
	for _, tc := range []struct {
		name  string
		run   string // f = Fail, r = Reset
		out   bool   // Out() after the run
		fires int    // how many Fail calls returned true
		count Count
	}{
		{"clean", "", false, 0, 0},
		{"below limit", "ff", false, 0, 2},
		{"at limit", "fff", true, 1, Limit},
		{"success breaks the run", "ffrff", false, 0, 2},
		{"long run saturates", strings.Repeat("f", 300), true, 1, Limit},
		{"reset after out", "fffr", false, 1, 0},
		{"out again after reset", "fffrfff", true, 2, Limit},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var c Count
			fires := 0
			for _, op := range tc.run {
				switch op {
				case 'f':
					if c.Fail() {
						fires++
					}
				case 'r':
					c.Reset()
				}
			}
			if c.Out() != tc.out || fires != tc.fires || c != tc.count {
				t.Fatalf("Out=%v fires=%d count=%d, want %v %d %d",
					c.Out(), fires, c, tc.out, tc.fires, tc.count)
			}
		})
	}
}
