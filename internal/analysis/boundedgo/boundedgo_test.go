package boundedgo_test

import (
	"testing"

	"pbmg/internal/analysis/atest"
	"pbmg/internal/analysis/boundedgo"
)

func TestBoundedgo(t *testing.T) {
	atest.Run(t, "testdata", boundedgo.Analyzer, "serve", "admit")
}
