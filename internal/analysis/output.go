package analysis

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"strings"
)

// Output encoders for cavet: SARIF 2.1.0 (build artifacts, code
// scanning upload) and GitHub workflow annotations (inline PR
// comments). The text format stays in cmd/cavet
// because it is just Finding.String.

// sarifLog is the minimal SARIF 2.1.0 document cavet emits.
type sarifLog struct {
	Version string     `json:"version"`
	Schema  string     `json:"$schema"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// WriteSARIF encodes the findings as a SARIF 2.1.0 log. rel maps absolute
// filenames to module-relative paths.
func WriteSARIF(w io.Writer, analyzers []*Analyzer, findings []Finding, rel func(string) string) error {
	rules := []sarifRule{{
		ID:               "cavet",
		ShortDescription: sarifMessage{Text: "framework findings: malformed or stale suppressions"},
	}}
	for _, a := range analyzers {
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifMessage{Text: a.Doc}})
	}
	results := []sarifResult{}
	for _, f := range findings {
		line := f.Pos.Line
		if line < 1 {
			line = 1 // SARIF regions are 1-based
		}
		results = append(results, sarifResult{
			RuleID:  f.Analyzer,
			Level:   "error",
			Message: sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: filepath.ToSlash(rel(f.Pos.Filename))},
					Region:           sarifRegion{StartLine: line, StartColumn: f.Pos.Column},
				},
			}},
		})
	}
	log := sarifLog{
		Version: "2.1.0",
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "cavet", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// WriteGitHub emits GitHub Actions workflow annotations, so PRs get
// inline ::error comments at the finding positions.
func WriteGitHub(w io.Writer, findings []Finding, rel func(string) string) error {
	for _, f := range findings {
		_, err := fmt.Fprintf(w, "::error file=%s,line=%d,col=%d,title=cavet/%s::%s\n",
			filepath.ToSlash(rel(f.Pos.Filename)), f.Pos.Line, f.Pos.Column,
			f.Analyzer, escapeGitHub(f.Message))
		if err != nil {
			return err
		}
	}
	return nil
}

// escapeGitHub escapes the characters the workflow-command parser
// treats specially in message data.
func escapeGitHub(s string) string {
	r := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A")
	return r.Replace(s)
}
