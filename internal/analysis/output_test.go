package analysis

import "testing"

func TestEscapeGitHub(t *testing.T) {
	in := "50% of\nlines\rdropped"
	got := escapeGitHub(in)
	want := "50%25 of%0Alines%0Ddropped"
	if got != want {
		t.Errorf("escapeGitHub(%q) = %q, want %q", in, got, want)
	}
}
