package core

import (
	"cmpsim/internal/cpu"
	"cmpsim/internal/cpu/mxs"
	"cmpsim/internal/memsys"
)

func init() {
	newMXSCore = func(id int, ctx *cpu.Context, m *Machine, cfg memsys.Config) Core {
		c := mxs.New(id, ctx, m.Sys, m.Code.Cursor(), m.Trap, m.Img, cfg.LineBytes)
		if cfg.Trace != nil {
			c.SetTracer(cfg.Trace)
		}
		if cfg.Prof != nil {
			c.SetProfiler(cfg.Prof)
		}
		return c
	}
}
