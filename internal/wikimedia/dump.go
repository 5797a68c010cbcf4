package wikimedia

import (
	"encoding/xml"
	"fmt"
	"io"
)

// MediaWiki XML dump export: the simulated wiki writes the subset of
// the real dump schema
// (https://www.mediawiki.org/xml/export-0.11/) that the study needs —
// page titles and full revision histories with timestamps,
// contributors, comments, and wikitext. The paper's pipeline could run
// off a dump instead of the live store; this makes the simulated
// corpus interchangeable with external tools.

// xmlDump is the root <mediawiki> element.
type xmlDump struct {
	XMLName  xml.Name  `xml:"mediawiki"`
	Version  string    `xml:"version,attr"`
	SiteInfo xmlSite   `xml:"siteinfo"`
	Pages    []xmlPage `xml:"page"`
}

type xmlSite struct {
	SiteName string `xml:"sitename"`
	DBName   string `xml:"dbname"`
}

type xmlPage struct {
	Title     string        `xml:"title"`
	NS        int           `xml:"ns"`
	Revisions []xmlRevision `xml:"revision"`
}

type xmlRevision struct {
	ID          int            `xml:"id"`
	Timestamp   string         `xml:"timestamp"`
	Contributor xmlContributor `xml:"contributor"`
	Comment     string         `xml:"comment,omitempty"`
	Text        xmlText        `xml:"text"`
}

type xmlContributor struct {
	Username string `xml:"username"`
}

type xmlText struct {
	Space string `xml:"xml:space,attr,omitempty"`
	Value string `xml:",chardata"`
}

// WriteDump exports the whole wiki as a MediaWiki XML dump, pages in
// title order, revisions oldest first.
func (w *Wiki) WriteDump(out io.Writer) error {
	dump := xmlDump{
		Version:  "0.11",
		SiteInfo: xmlSite{SiteName: "Simulated Wikipedia", DBName: "simwiki"},
	}
	for _, title := range w.Titles() {
		a := w.Article(title)
		page := xmlPage{Title: a.Title}
		for _, rev := range a.Revisions {
			page.Revisions = append(page.Revisions, xmlRevision{
				ID:          rev.ID,
				Timestamp:   rev.Day.Time().Format("2006-01-02T15:04:05Z"),
				Contributor: xmlContributor{Username: rev.User},
				Comment:     rev.Comment,
				Text:        xmlText{Space: "preserve", Value: rev.Text},
			})
		}
		dump.Pages = append(dump.Pages, page)
	}

	if _, err := io.WriteString(out, xml.Header); err != nil {
		return fmt.Errorf("wikimedia: dump: %w", err)
	}
	enc := xml.NewEncoder(out)
	enc.Indent("", "  ")
	if err := enc.Encode(&dump); err != nil {
		return fmt.Errorf("wikimedia: dump: %w", err)
	}
	if err := enc.Close(); err != nil {
		return fmt.Errorf("wikimedia: dump: %w", err)
	}
	_, err := io.WriteString(out, "\n")
	return err
}
