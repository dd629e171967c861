package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestStaticTablesMatchTranscript holds the paper's analytical tables —
// Tables 2, 3 and 4 and Fig. 10, which come from the component model
// and run no pipeline — to the checked-in transcript byte for byte: each
// renders exactly its "== Title ==" section of results/cabench_full.txt,
// so a model change that moves a published number fails here until the
// transcript is regenerated with it.
func TestStaticTablesMatchTranscript(t *testing.T) {
	transcript, err := os.ReadFile("../../results/cabench_full.txt")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(Config{})
	for _, tab := range []*Table{r.Table2(), r.Table3(), r.Table4(), r.Figure10()} {
		var got bytes.Buffer
		if err := tab.Render(&got); err != nil {
			t.Fatal(err)
		}
		head := "== " + tab.Title + " ==\n"
		i := bytes.Index(transcript, []byte(head))
		if i < 0 {
			t.Errorf("results/cabench_full.txt has no %q section", strings.TrimSpace(head))
			continue
		}
		want, _, _ := bytes.Cut(transcript[i:], []byte("\n\n"))
		if want = append(want, '\n'); !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s differs from results/cabench_full.txt:\ngot\n%s\nwant\n%s", tab.Title, got.Bytes(), want)
		}
	}
}
