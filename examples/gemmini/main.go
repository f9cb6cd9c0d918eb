// Gemmini-style systolic array: build an output-stationary MAC mesh as a
// dataflow graph with the library API, compile it once with the public sim
// package, and stream a real matrix multiplication through a session.
package main

import (
	"fmt"
	"log"

	"rteaal/internal/dfg"
	"rteaal/internal/wire"
	"rteaal/sim"
)

const dim = 4

// buildMesh constructs the dim x dim output-stationary grid: A values flow
// east, B values flow south, every PE accumulates a_ik * b_kj.
func buildMesh() *dfg.Graph {
	g := &dfg.Graph{Name: "mesh"}
	accW := 24
	clear := g.AddInput("clear", 1)
	zero := g.AddConst(0, accW)
	aIn := make([]dfg.NodeID, dim)
	bIn := make([]dfg.NodeID, dim)
	for i := 0; i < dim; i++ {
		aIn[i] = g.AddInput(fmt.Sprintf("a_%d", i), 8)
		bIn[i] = g.AddInput(fmt.Sprintf("b_%d", i), 8)
	}
	var aReg, bReg, acc [dim][dim]dfg.NodeID
	for i := 0; i < dim; i++ {
		for j := 0; j < dim; j++ {
			aReg[i][j] = g.AddReg(fmt.Sprintf("A_%d_%d", i, j), 8, 0)
			bReg[i][j] = g.AddReg(fmt.Sprintf("B_%d_%d", i, j), 8, 0)
			acc[i][j] = g.AddReg(fmt.Sprintf("acc_%d_%d", i, j), accW, 0)
		}
	}
	for i := 0; i < dim; i++ {
		for j := 0; j < dim; j++ {
			aSrc, bSrc := aIn[i], bIn[j]
			if j > 0 {
				aSrc = aReg[i][j-1]
			}
			if i > 0 {
				bSrc = bReg[i-1][j]
			}
			g.SetRegNext(aReg[i][j], aSrc)
			g.SetRegNext(bReg[i][j], bSrc)
			prod := g.AddOp(wire.Mul, accW, aReg[i][j], bReg[i][j])
			sum := g.AddOp(wire.Add, accW, acc[i][j], prod)
			g.SetRegNext(acc[i][j], g.AddOp(wire.Mux, accW, clear, zero, sum))
			g.AddOutput(fmt.Sprintf("out_%d_%d", i, j), acc[i][j])
		}
	}
	return g
}

func main() {
	design, err := sim.CompileGraph(buildMesh())
	if err != nil {
		log.Fatal(err)
	}
	s := design.NewSession()

	a := [dim][dim]uint64{{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10, 11, 12}, {13, 14, 15, 16}}
	b := [dim][dim]uint64{{1, 0, 0, 1}, {0, 2, 1, 0}, {3, 0, 2, 0}, {0, 1, 0, 3}}

	// Skewed injection: row i of A enters i cycles late, column j of B
	// likewise, so PE (i,j) sees aligned operands.
	steps := 3*dim + 2
	for t := 0; t < steps; t++ {
		for i := 0; i < dim; i++ {
			var av, bv uint64
			if k := t - i; k >= 0 && k < dim {
				av = a[i][k]
				bv = b[k][i]
			}
			s.Poke(fmt.Sprintf("a_%d", i), av)
			s.Poke(fmt.Sprintf("b_%d", i), bv)
		}
		if err := s.Step(); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println("C = A x B streamed through the mesh:")
	for i := 0; i < dim; i++ {
		for j := 0; j < dim; j++ {
			got := s.PeekReg(regIndex(i, j))
			var want uint64
			for k := 0; k < dim; k++ {
				want += a[i][k] * b[k][j]
			}
			status := "ok"
			if got != want {
				status = fmt.Sprintf("MISMATCH want %d", want)
			}
			fmt.Printf("  C[%d][%d] = %4d (%s)\n", i, j, got, status)
		}
	}
}

// regIndex locates acc_i_j in the register order of buildMesh: registers
// are created in (A, B, acc) triples per PE, row-major.
func regIndex(i, j int) int { return (i*dim+j)*3 + 2 }
