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

func TestTableText(t *testing.T) {
	if b, err := colors.MarshalText(1); err != nil || string(b) != "green" {
		t.Errorf("MarshalText(1) = %q, %v", b, err)
	}
	if _, err := colors.MarshalText(2); err == nil {
		t.Error("MarshalText(2) spelled an unnamed value")
	}
	v := color(1)
	if err := colors.UnmarshalText(&v, []byte("blue")); err == nil || v != 1 {
		t.Errorf("UnmarshalText(blue) = %v, left %v; want an error and 1 kept", err, v)
	}
	if err := colors.UnmarshalText(&v, nil); err != nil || v != 0 {
		t.Errorf("UnmarshalText(empty) = %v, %v; want the zero value", v, err)
	}
}
