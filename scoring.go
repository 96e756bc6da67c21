package statsudf

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine/sqltypes"
	"repro/internal/matrix"
	"repro/internal/score"
	"repro/internal/sqlgen"
)

// Model persistence uses the paper's relational layouts (§3.5):
// BETA(b0..bd) for regression, MU(X1..Xd) + LAMBDA(j, X1..Xd) for
// PCA/factor models, and C/R/W tables for clustering. Stored models
// are what the scoring statements cross-join against.

// StoreRegression writes β to betaTable (replacing it).
func (d *DB) StoreRegression(betaTable string, m *LinRegModel) error {
	return score.SaveLinReg(d.eng, betaTable, m)
}

// LoadRegression reads a stored regression model.
func (d *DB) LoadRegression(betaTable string) (*LinRegModel, error) {
	return score.LoadLinReg(d.eng, betaTable)
}

// StorePCA writes µ and Λ to the two model tables (replacing them).
func (d *DB) StorePCA(muTable, lambdaTable string, m *PCAModel) error {
	return score.SavePCA(d.eng, muTable, lambdaTable, m)
}

// LoadPCA reads a stored PCA model (scoring-capable; eigenvalue
// diagnostics stay with the training run).
func (d *DB) LoadPCA(muTable, lambdaTable string) (*PCAModel, error) {
	return score.LoadPCA(d.eng, muTable, lambdaTable)
}

// StoreFactorAnalysis writes a factor model in the same MU/LAMBDA
// layout PCA uses, with the posterior projection B = (I+ΛᵀΨ⁻¹Λ)⁻¹ΛᵀΨ⁻¹
// folded into the stored loadings, so the generic fascore UDF computes
// the factor scores E[z|x] = B·(x−µ) in one scan — the paper's point
// that one scoring UDF serves both PCA and factor analysis.
func (d *DB) StoreFactorAnalysis(muTable, lambdaTable string, m *FactorModel) error {
	proj, err := factorProjection(m)
	if err != nil {
		return err
	}
	// Reuse the PCA layout: a PCAModel whose Lambda columns are Bᵀ.
	pm := &core.PCAModel{D: m.D, K: m.K, Lambda: proj, Mu: m.Mu}
	return score.SavePCA(d.eng, muTable, lambdaTable, pm)
}

// factorProjection returns the d×k matrix whose column j holds the
// coefficients of factor j's posterior mean.
func factorProjection(m *FactorModel) (*matrix.Dense, error) {
	psiInvLambda := matrix.New(m.D, m.K)
	for i := 0; i < m.D; i++ {
		for j := 0; j < m.K; j++ {
			psiInvLambda.Set(i, j, m.Lambda.At(i, j)/m.Psi[i])
		}
	}
	g := matrix.Identity(m.K).Plus(m.Lambda.Transpose().Mul(psiInvLambda))
	gInv, err := g.Inverse()
	if err != nil {
		return nil, err
	}
	b := gInv.Mul(psiInvLambda.Transpose()) // k×d
	return b.Transpose(), nil               // d×k, column j = factor j
}

// ScoreFactorAnalysis reduces xTable to k factor scores per row in one
// scan via fascore against the stored MU/LAMBDA tables.
func (d *DB) ScoreFactorAnalysis(xTable, idCol string, columns []string, muTable, lambdaTable, dstTable string, k int) (int64, error) {
	return d.ScorePCA(xTable, idCol, columns, muTable, lambdaTable, dstTable, k)
}

// StoreKMeans writes C, R and W tables (replacing them).
func (d *DB) StoreKMeans(cTable, rTable, wTable string, m *KMeansModel) error {
	return score.SaveKMeans(d.eng, cTable, rTable, wTable, m)
}

// LoadKMeans reads a stored clustering model.
func (d *DB) LoadKMeans(cTable, rTable, wTable string) (*KMeansModel, error) {
	return score.LoadKMeans(d.eng, cTable, rTable, wTable)
}

// scoreInto is the body every Score* method shares: (re)create dst as
// (idCol BIGINT, valueCols DOUBLE...), fill it with one
// INSERT INTO dst <generated scoring SELECT>, and report the rows
// scored.
func (d *DB) scoreInto(dst, idCol, scoringSelect string, valueCols ...string) (int64, error) {
	if d.eng.HasTable(dst) {
		if err := d.eng.DropTable(dst); err != nil {
			return 0, err
		}
	}
	cols := []sqltypes.Column{{Name: idCol, Type: sqltypes.TypeBigInt}}
	for _, c := range valueCols {
		cols = append(cols, sqltypes.Column{Name: c, Type: sqltypes.TypeDouble})
	}
	schema, err := sqltypes.NewSchema(cols...)
	if err != nil {
		return 0, err
	}
	if _, err := d.eng.CreateTable(dst, schema); err != nil {
		return 0, err
	}
	res, err := d.eng.Exec(fmt.Sprintf("INSERT INTO %s %s", dst, scoringSelect))
	if err != nil {
		return 0, err
	}
	return res.Affected, nil
}

// ScoreRegression scores xTable against the stored BETA model in a
// single scan (X CROSS JOIN BETA + one linearregscore call per row),
// writing (id, yhat) into dstTable. Returns the rows scored.
func (d *DB) ScoreRegression(xTable, idCol string, columns []string, betaTable, dstTable string) (int64, error) {
	return d.scoreInto(dstTable, idCol, sqlgen.RegScoreUDF(xTable, betaTable, idCol, columns), "yhat")
}

// ScorePCA reduces xTable to k coordinates per row in a single scan
// (fascore called k times against the MU/LAMBDA tables), writing
// (id, p1..pk) into dstTable.
func (d *DB) ScorePCA(xTable, idCol string, columns []string, muTable, lambdaTable, dstTable string, k int) (int64, error) {
	names := make([]string, k)
	for j := range names {
		names[j] = fmt.Sprintf("p%d", j+1)
	}
	return d.scoreInto(dstTable, idCol, sqlgen.PCAScoreUDF(xTable, muTable, lambdaTable, idCol, columns, k), names...)
}

// ScoreKMeans assigns each row of xTable its nearest centroid (k
// kdistance calls + clusterscore, one scan), writing (id, j) into
// dstTable with j the 1-based cluster subscript.
func (d *DB) ScoreKMeans(xTable, idCol string, columns []string, cTable, dstTable string, k int) (int64, error) {
	return d.scoreInto(dstTable, idCol, sqlgen.ClusterScoreUDF(xTable, cTable, idCol, columns, k), "j")
}

// KMeansInEngine runs K-means entirely through the engine: every
// iteration is one table scan that assigns each row to its nearest
// centroid with the scoring UDFs (clusterscore over k kdistance calls)
// and simultaneously accumulates per-cluster summary matrices by
// grouping on that assignment — the paper's GROUP BY formulation of
// clustering. Centroids live in the cTable between iterations, so the
// whole loop is SQL in, model tables out.
func (d *DB) KMeansInEngine(table string, columns []string, k, iters int, seed int64, cTable, rTable, wTable string) (*KMeansModel, error) {
	if k < 1 || iters < 1 {
		return nil, fmt.Errorf("statsudf: k=%d iters=%d out of range", k, iters)
	}
	cents, err := d.seedCentroids(table, columns, k, seed)
	if err != nil {
		return nil, err
	}
	model := &core.KMeansModel{D: len(columns), K: k, C: cents}
	for iter := 0; iter < iters; iter++ {
		// Publish current centroids for the scoring cross joins.
		if err := score.SaveKMeans(d.eng, cTable, rTable, wTable, padKMeans(model)); err != nil {
			return nil, err
		}
		res, err := d.eng.Exec(sqlgen.KMeansIterationQuery(table, cTable, columns, k))
		if err != nil {
			return nil, err
		}
		sums := make([]*core.NLQ, k)
		err = eachGroup(res, func(key Value, s *NLQ) error {
			j := int(key.Int())
			if j < 1 || j > k {
				return fmt.Errorf("statsudf: iteration returned cluster %d out of 1..%d", j, k)
			}
			sums[j-1] = s
			return nil
		})
		if err != nil {
			return nil, err
		}
		next, err := core.FinalizeKMeans(model.C, sums)
		if err != nil {
			return nil, err
		}
		next.Iters = iter + 1
		model = next
	}
	if err := score.SaveKMeans(d.eng, cTable, rTable, wTable, model); err != nil {
		return nil, err
	}
	return model, nil
}

// padKMeans fills R/W for a model that only has centroids yet, so the
// intermediate SaveKMeans calls satisfy the table layouts.
func padKMeans(m *core.KMeansModel) *core.KMeansModel {
	out := *m
	if out.R == nil {
		out.R = make([][]float64, m.K)
		for j := range out.R {
			out.R[j] = make([]float64, m.D)
		}
	}
	if out.W == nil {
		out.W = make([]float64, m.K)
	}
	return &out
}

// Predict applies a regression model in the client to one point; a
// convenience mirror of the in-engine scoring path.
func Predict(m *LinRegModel, x []float64) (float64, error) { return m.Predict(x) }

// BuildCorrelationFrom builds a correlation model from summaries the
// caller already has (e.g. a GroupedSummary entry).
func BuildCorrelationFrom(s *NLQ) (*CorrelationModel, error) { return core.BuildCorrelation(s) }

// BuildLinRegFrom solves the regression normal equations from an
// augmented summary (last dimension is Y).
func BuildLinRegFrom(s *NLQ) (*LinRegModel, error) { return core.BuildLinReg(s) }

// BuildPCAFrom computes the top-k components from summaries.
func BuildPCAFrom(s *NLQ, k int, basis PCABasis) (*PCAModel, error) {
	return core.BuildPCA(s, k, basis)
}
