package maporder_test

import (
	"testing"

	"github.com/absmac/absmac/internal/lint/linttest"
	"github.com/absmac/absmac/internal/lint/maporder"
)

func TestFixture(t *testing.T) {
	linttest.Run(t, "testdata/src/maporder", maporder.Analyzer)
}
