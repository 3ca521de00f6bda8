package cluster

import "testing"

func TestParseWidthSpec(t *testing.T) {
	cases := []struct {
		in   string
		want WidthSpec
		err  bool
	}{
		{in: "2:4", want: WidthSpec{Min: 2, Max: 4, Step: 1, Desired: 4}},
		{in: "2:8:2", want: WidthSpec{Min: 2, Max: 8, Step: 2, Desired: 8}},
		{in: "2:8:2:4", want: WidthSpec{Min: 2, Max: 8, Step: 2, Desired: 4}},
		{in: "1:1", want: WidthSpec{Min: 1, Max: 1, Step: 1, Desired: 1}},
		{in: "4:2", err: true},       // max < min
		{in: "0:4", err: true},       // min < 1
		{in: "2:5:2", err: true},     // max unreachable by step
		{in: "2:8:2:3", err: true},   // desired off the step grid
		{in: "2", err: true},         // too few fields
		{in: "2:4:1:2:9", err: true}, // too many fields
		{in: "two:4", err: true},     // not a number
	}
	for _, c := range cases {
		got, err := ParseWidthSpec(c.in)
		if c.err {
			if err == nil {
				t.Errorf("ParseWidthSpec(%q) = %+v, want error", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseWidthSpec(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseWidthSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestWidthSpecClamp(t *testing.T) {
	w := WidthSpec{Min: 2, Max: 8, Step: 2, Desired: 4}
	cases := []struct{ in, want int }{
		{0, 2}, {1, 2}, {2, 2}, {3, 2}, {4, 4}, {5, 4}, {7, 6}, {8, 8}, {100, 8},
	}
	for _, c := range cases {
		if got := w.Clamp(c.in); got != c.want {
			t.Errorf("Clamp(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestEvenRanges(t *testing.T) {
	for _, c := range []struct{ n, w int }{{6, 2}, {6, 4}, {7, 3}, {5, 5}, {10, 1}} {
		r := evenRanges(c.n, c.w)
		if len(r) != c.w {
			t.Fatalf("evenRanges(%d,%d): %d ranges", c.n, c.w, len(r))
		}
		pos := 0
		for k, rr := range r {
			if rr[0] != pos {
				t.Fatalf("evenRanges(%d,%d): range %d starts at %d, want %d", c.n, c.w, k, rr[0], pos)
			}
			if rr[1] <= rr[0] {
				t.Fatalf("evenRanges(%d,%d): empty range %d", c.n, c.w, k)
			}
			pos = rr[1]
		}
		if pos != c.n {
			t.Fatalf("evenRanges(%d,%d): covers %d slots", c.n, c.w, pos)
		}
	}
}

func TestPickSplit(t *testing.T) {
	// Most loaded splittable member wins; single-slot members are skipped.
	loads := []memberLoad{
		{idx: 0, id: 0, slots: 1, load: 100},
		{idx: 1, id: 1, slots: 3, load: 50},
		{idx: 2, id: 2, slots: 2, load: 50},
		{idx: 3, id: 3, slots: 2, load: 10},
	}
	if got := pickSplit(loads); got != 1 {
		t.Fatalf("pickSplit = %d, want 1 (load tie broken by more slots)", got)
	}
	if got := pickSplit([]memberLoad{{slots: 1}, {slots: 1}}); got != -1 {
		t.Fatalf("pickSplit on unsplittable fleet = %d, want -1", got)
	}
}

func TestPickMerge(t *testing.T) {
	loads := []memberLoad{
		{idx: 0, load: 50},
		{idx: 1, load: 5},
		{idx: 2, load: 3},
		{idx: 3, load: 40},
	}
	if got := pickMerge(loads); got != 1 {
		t.Fatalf("pickMerge = %d, want 1 (pair 1+2 has least combined load)", got)
	}
	if got := pickMerge([]memberLoad{{idx: 0}}); got != -1 {
		t.Fatalf("pickMerge on single member = %d, want -1", got)
	}
}
