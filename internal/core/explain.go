package core

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/features"
	"repro/internal/flow"
	"repro/internal/js/parser"
)

// Explanation pairs a detector's class probabilities with the static
// indicator diagnostics that support (or contradict) them, so a verdict can
// be traced back to concrete source spans.
type Explanation struct {
	// Labels and Probs are the detector's classes and probabilities, in
	// chain order.
	Labels []string  `json:"labels"`
	Probs  []float64 `json:"probs"`
	// Diagnostics are the static indicator findings, sorted by position.
	Diagnostics []analysis.Diagnostic `json:"diagnostics"`
}

// Support returns the diagnostics attributing the given technique label.
func (e *Explanation) Support(label string) []analysis.Diagnostic {
	var out []analysis.Diagnostic
	for _, d := range e.Diagnostics {
		if d.Technique == label {
			out = append(out, d)
		}
	}
	return out
}

// SupportedLabels returns the set of technique labels that at least one
// diagnostic attributes.
func (e *Explanation) SupportedLabels() map[string]bool {
	out := make(map[string]bool)
	for _, d := range e.Diagnostics {
		if d.Technique != "" {
			out[d.Technique] = true
		}
	}
	return out
}

// Explain classifies src and runs the static indicator rules, sharing one
// parse and one flow graph between the classifier features and the rules.
func (d *Detector) Explain(src string) (*Explanation, error) {
	res, err := parser.ParseNoTokens(src)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	var diags []analysis.Diagnostic
	var vec features.Vector
	flow.Use(res.Program, d.extractor.FlowOptions(), func(g *flow.Graph) {
		diags = analysis.AnalyzeParsed(src, res, g)
		vec = d.extractor.ExtractFull(src, res, g, diags)
	})
	return &Explanation{
		Labels:      d.Labels(),
		Probs:       d.model.PredictProbs(vec),
		Diagnostics: diags,
	}, nil
}
