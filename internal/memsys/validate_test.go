package memsys

import (
	"strings"
	"testing"
)

// TestValidate: every geometry no architecture can be built from is
// rejected with an error naming the field, and the paper's parameters
// (plus the MXS adjustment) pass.
func TestValidate(t *testing.T) {
	def := DefaultConfig()
	if err := def.Validate(); err != nil {
		t.Fatalf("DefaultConfig: %v", err)
	}
	if mxs := def.MXS(); mxs.Validate() != nil {
		t.Fatalf("DefaultConfig().MXS(): %v", mxs.Validate())
	}
	for _, tc := range []struct {
		field string
		edit  func(*Config)
	}{
		{"NumCPUs", func(c *Config) { c.NumCPUs = 0 }},
		{"LineBytes", func(c *Config) { c.LineBytes = 0 }},
		{"LineBytes", func(c *Config) { c.LineBytes = 48 }},
		{"L1IAssoc", func(c *Config) { c.L1IAssoc = 0 }},
		{"L1DAssoc", func(c *Config) { c.L1DAssoc = 0 }},
		{"SharedL1Assoc", func(c *Config) { c.SharedL1Assoc = 0 }},
		{"L2Assoc", func(c *Config) { c.L2Assoc = 0 }},
		{"L1ISize", func(c *Config) { c.L1ISize = 0 }},
		{"L1DSize", func(c *Config) { c.L1DSize = 1000 }},
		{"SharedL1Size", func(c *Config) { c.SharedL1Size = 48 << 10 }},
		{"L2Size", func(c *Config) { c.L2Size = 3 << 20 }},
		{"PrivL2Size", func(c *Config) { c.PrivL2Size = 100 }},
		{"L1DSize", func(c *Config) { c.L1DAssoc = 3 }},
		{"SharedL1Banks", func(c *Config) { c.SharedL1Banks = 3 }},
		{"SharedL1Banks", func(c *Config) { c.SharedL1Banks = 0 }},
		{"L2Banks", func(c *Config) { c.L2Banks = 6 }},
		{"MSHRs", func(c *Config) { c.MSHRs = 0 }},
	} {
		c := DefaultConfig()
		tc.edit(&c)
		err := c.Validate()
		if err == nil {
			t.Errorf("%s: invalid config accepted", tc.field)
			continue
		}
		if !strings.Contains(err.Error(), tc.field+" = ") {
			t.Errorf("%s: error %q does not name the field", tc.field, err)
		}
	}
}
