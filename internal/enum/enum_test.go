package enum

import "testing"

type color int

var colors = Table[color]{Type: "color", Unknown: "paint: unknown color", Names: []string{"red", "green"}}

func TestTable(t *testing.T) {
	for v, name := range colors.Names {
		if got := colors.String(color(v)); got != name {
			t.Errorf("String(%d) = %q, want %q", v, got, name)
		}
		if got, err := colors.Parse(name); err != nil || got != color(v) {
			t.Errorf("Parse(%q) = %v, %v", name, got, err)
		}
		if err := colors.Validate(color(v)); err != nil {
			t.Errorf("Validate(%d) = %v", v, err)
		}
	}
	if got, err := colors.Parse(""); err != nil || got != 0 {
		t.Errorf(`Parse("") = %v, %v; want the zero value`, got, err)
	}
	if _, err := colors.Parse("blue"); err == nil || err.Error() != `paint: unknown color "blue" (have red, green)` {
		t.Errorf("Parse(blue) error = %v", err)
	}
	for _, v := range []color{-1, 2} {
		if err := colors.Validate(v); err == nil {
			t.Errorf("Validate(%d) accepted an unnamed value", v)
		}
	}
	if got := colors.String(5); got != "color(5)" {
		t.Errorf("String(5) = %q", got)
	}
	l := colors.List()
	l[0] = "mutated"
	if colors.Names[0] != "red" {
		t.Error("List exposed the table's backing array")
	}
}
