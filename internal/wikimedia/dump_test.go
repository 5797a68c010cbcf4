package wikimedia

import (
	"bytes"
	"encoding/xml"
	"strings"
	"testing"
)

func buildDumpWiki() *Wiki {
	w := NewWiki()
	w.Create("Beta Article", d(100), "Author1", `Intro.<ref>{{cite web|url=http://a.simtest/1|title=One}}</ref>`)
	w.Create("Alpha Article", d(150), "Author2", `Text [http://b.simtest/2 Two].`)
	w.Edit("Beta Article", d(300), "InternetArchiveBot", "Tagging dead links. #IABot",
		`Intro.<ref>{{cite web|url=http://a.simtest/1|title=One|url-status=dead}} {{dead link|date=X|bot=InternetArchiveBot}}</ref>
[[Category:Articles with permanently dead external links]]`)
	w.Edit("Alpha Article", d(200), "Author3", "expand", `Text [http://b.simtest/2 Two]. More.`)
	return w
}

// decodeDump writes w as a dump and parses it back into the schema.
func decodeDump(t *testing.T, w *Wiki) xmlDump {
	t.Helper()
	var buf bytes.Buffer
	if err := w.WriteDump(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{xml.Header, "<mediawiki", `version="0.11"`, "<page>", "<revision>"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q", want)
		}
	}
	var dump xmlDump
	if err := xml.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	return dump
}

func TestDumpRoundTrip(t *testing.T) {
	w := buildDumpWiki()
	dump := decodeDump(t, w)
	if len(dump.Pages) != w.Len() {
		t.Fatalf("page count %d vs %d", len(dump.Pages), w.Len())
	}
	for i, title := range w.Titles() {
		a, p := w.Article(title), dump.Pages[i]
		if p.Title != title || len(p.Revisions) != len(a.Revisions) {
			t.Fatalf("page %d = %q with %d revisions, want %q with %d", i, p.Title, len(p.Revisions), title, len(a.Revisions))
		}
		for j, ra := range a.Revisions {
			rb := p.Revisions[j]
			if rb.ID != ra.ID || rb.Timestamp != ra.Day.Time().Format("2006-01-02T15:04:05Z") ||
				rb.Contributor.Username != ra.User || rb.Comment != ra.Comment || rb.Text.Value != ra.Text {
				t.Errorf("%q rev %d differs: %+v vs %+v", title, j, ra, rb)
			}
		}
	}
}

func TestDumpEscapesMarkup(t *testing.T) {
	w := NewWiki()
	w.Create("Escapes", d(10), "U", `Text with <ref> tags & {{templates|a=1}} and "quotes".`)
	dump := decodeDump(t, w)
	if got := dump.Pages[0].Revisions[0].Text.Value; got != w.Article("Escapes").Current().Text {
		t.Errorf("text corrupted: %q", got)
	}
}
