package persist

import (
	"fmt"

	"medrelax/internal/core"
	"medrelax/internal/eks"
	"medrelax/internal/kb"
	"medrelax/internal/strtab"
)

// The column families of a flat (v4) bundle. Each component that rides in a
// bundle as columns — the graph, the store, the mappings, the frequency
// table, the materialized store, the candidate index and the sources table —
// has one table here, a row per section: its kind, its name,
// and the field of the component's Flat*Data that is its column. The writer
// encodes a table (addColumns), the reader decodes one (columns), and -inspect
// and every decode error name a section by its row, so a column is declared
// once. Rows are in kind order, the order the writer meets their strings in.
// A secondary source's graph, mappings and frequencies are the primary's
// tables shifted to its kind base (atSource).
//
// The meta scalars, the string table and the ontology are not columns of a
// component and are written and read by hand.

// flatColumn is one section of a column family. col points at the column: a
// *strtab.Column is a string-reference column, any other a numeric column.
type flatColumn struct {
	kind uint32
	name string
	col  any
}

func graphColumns(d *eks.FlatGraphData) []flatColumn {
	return []flatColumn{
		{secGraphIDs, "graphIDs", &d.IDs},
		{secGraphNames, "graphNames", &d.Names},
		{secGraphSynOff, "graphSynOffsets", &d.SynOff},
		{secGraphSyns, "graphSynonyms", &d.Syns},
		{secGraphUpOff, "graphUpOffsets", &d.UpOff},
		{secGraphUpTo, "graphUpTargets", &d.UpTo},
		{secGraphUpDist, "graphUpDistances", &d.UpDist},
		{secGraphUpNEnd, "graphUpNativeEnds", &d.UpNativeEnd},
		{secGraphDownOff, "graphDownOffsets", &d.DownOff},
		{secGraphDownTo, "graphDownTargets", &d.DownTo},
		{secGraphDownDist, "graphDownDistances", &d.DownDist},
		{secGraphDownNEnd, "graphDownNativeEnds", &d.DownNativeEnd},
		{secGraphNameKeys, "graphNameKeys", &d.NameKeys},
		{secGraphKeyOff, "graphKeyOffsets", &d.KeyOff},
		{secGraphKeyIDs, "graphKeyIDs", &d.KeyIDs},
	}
}

func storeColumns(d *kb.FlatStoreData) []flatColumn {
	return []flatColumn{
		{secStoreIDs, "storeIDs", &d.IDs},
		{secStoreConcepts, "storeConcepts", &d.Concepts},
		{secStoreNames, "storeNames", &d.Names},
		{secStoreLexKeys, "storeLexiconKeys", &d.LexKeys},
		{secStoreLexOff, "storeLexiconOffsets", &d.LexOff},
		{secStoreLexIDs, "storeLexiconIDs", &d.LexIDs},
		{secStoreConKeys, "storeConceptKeys", &d.ConceptKeys},
		{secStoreConOff, "storeConceptOffsets", &d.ConceptOff},
		{secStoreConIDs, "storeConceptIDs", &d.ConceptIDs},
		{secStoreRelNames, "storeRelNames", &d.RelNames},
		{secStoreASub, "storeAssertSubjects", &d.ASub},
		{secStoreARel, "storeAssertRels", &d.ARel},
		{secStoreAObj, "storeAssertObjects", &d.AObj},
		{secStorePerm, "storeAssertPerm", &d.ByObjPerm},
	}
}

func mappingsColumns(d *core.FlatMappingsData) []flatColumn {
	return []flatColumn{
		{secMapInst, "mappingInstances", &d.Instances},
		{secMapCon, "mappingConcepts", &d.Concepts},
		{secMapFlag, "flaggedConcepts", &d.Flagged},
		{secMapIOff, "mappingInstOffsets", &d.InstOff},
		{secMapIPool, "mappingInstPool", &d.InstPool},
	}
}

func frequencyColumns(d *core.FlatFrequencyData) []flatColumn {
	return []flatColumn{
		{secFreqLabels, "freqLabels", &d.Labels},
		{secFreqOff, "freqOffsets", &d.Off},
		{secFreqIDs, "freqIDs", &d.IDs},
		{secFreqVals, "freqValues", &d.Vals},
		{secFreqAggIDs, "freqAggIDs", &d.AggIDs},
		{secFreqAggVals, "freqAggValues", &d.AggVals},
	}
}

func materializedColumns(d *core.FlatMaterializedData) []flatColumn {
	return []flatColumn{
		{secMatCon, "matConcepts", &d.Concepts},
		{secMatCtx, "matContexts", &d.Ctxs},
		{secMatCnt, "matCounts", &d.Counts},
		{secMatCandScores, "matCandScores", &d.CandScores},
		{secMatCandSlots, "matCandSlots", &d.CandSlots},
		{secMatRanking, "matEntryRankings", &d.Ranking},
		{secMatFlags, "matFlags", &d.Complete},
		{secMatCntOff, "matCountOffsets", &d.CountOff},
		{secMatCandOff, "matCandOffsets", &d.CandOff},
	}
}

func candidateColumns(d *core.FlatCandidateIndexData) []flatColumn {
	return []flatColumn{
		{secCidxCon, "cidxConcepts", &d.Concepts},
		{secCidxOff, "cidxHitOffsets", &d.Off},
		{secCidxHits, "cidxHits", &d.Hits},
		{secCidxLevels, "cidxLevelEnds", &d.Levels},
		{secCidxCounts, "cidxInstanceCounts", &d.Counts},
		{secCidxShapeOff, "cidxShapeOffsets", &d.ShapeOff},
		{secCidxShapes, "cidxShapes", &d.Shapes},
		{secCidxSetOff, "cidxTiedSetOffsets", &d.SetOff},
		{secCidxTiedOff, "cidxTiedSetBounds", &d.TiedOff},
		{secCidxTied, "cidxTiedNodes", &d.Tied},
	}
}

// flatSources is the sources table's columns: a row per secondary source.
type flatSources struct {
	Names     strtab.Column
	Roots     []eks.ConceptID
	Shortcuts []int64
	FreqRoots []eks.ConceptID
	Smoothing []float64
}

func sourcesColumns(d *flatSources) []flatColumn {
	return []flatColumn{
		{secSrcNames, "sourceNames", &d.Names},
		{secSrcRoots, "sourceRoots", &d.Roots},
		{secSrcShortcuts, "sourceShortcuts", &d.Shortcuts},
		{secSrcFreqRoots, "sourceFreqRoots", &d.FreqRoots},
		{secSrcSmoothing, "sourceFreqSmoothing", &d.Smoothing},
	}
}

// atSource shifts a family to a secondary source's kind base; its rows keep
// the primary's names, which flatSectionName prefixes with the source. Base 0
// is the primary's family as it is.
func atSource(base uint32, family []flatColumn) []flatColumn {
	for i := range family {
		family[i].kind += base
	}
	return family
}

// flatFamilies is the table of every family a single-source bundle may carry,
// over no data.
func flatFamilies() [][]flatColumn {
	return [][]flatColumn{
		graphColumns(new(eks.FlatGraphData)),
		storeColumns(new(kb.FlatStoreData)),
		mappingsColumns(new(core.FlatMappingsData)),
		frequencyColumns(new(core.FlatFrequencyData)),
		materializedColumns(new(core.FlatMaterializedData)),
		candidateColumns(new(core.FlatCandidateIndexData)),
	}
}

// flatSectionNames names every section kind a primary has: the hand-written
// sections, then every row of every family and of the sources table.
var flatSectionNames = func() map[uint32]string {
	names := map[uint32]string{
		secMeta: "meta", secStrOff: "strOffsets", secStr: "strBlob",
		secOntoConcepts: "ontologyConcepts", secOntoRels: "ontologyRelationships",
	}
	for _, family := range append(flatFamilies(), sourcesColumns(new(flatSources))) {
		for _, c := range family {
			names[c.kind] = c.name
		}
	}
	return names
}()

// flatSectionName renders a v4 section kind for humans: a secondary source's
// section as source<i>.<the primary's name>; unknown kinds (from a future
// writer) print as kind/<n>.
func flatSectionName(kind uint32) string {
	if src := sourceOf(kind); src > 0 {
		return fmt.Sprintf("source%d.%s", src, flatSectionName(kind%sourceKindStride))
	}
	if n, ok := flatSectionNames[kind]; ok {
		return n
	}
	return fmt.Sprintf("kind/%d", kind)
}

// addColumns emits a family's sections: numeric columns little-endian,
// string columns as references into the bundle's string table.
func (w *flatWriter) addColumns(family []flatColumn) {
	for _, c := range family {
		var payload []byte
		switch col := c.col.(type) {
		case *strtab.Column:
			payload = w.leRefs(*col)
		case *[]int32:
			payload = leColumn(*col)
		case *[]uint32:
			payload = leColumn(*col)
		case *[]int64:
			payload = leColumn(*col)
		case *[]float64:
			payload = leColumn(*col)
		case *[]eks.ConceptID:
			payload = leColumn(*col)
		case *[]kb.InstanceID:
			payload = leColumn(*col)
		default:
			panic(fmt.Sprintf("persist: column %s is a %T", c.name, c.col))
		}
		w.add(c.kind, payload)
	}
}

// columns decodes a family's sections into the columns its table points at;
// every section must be present.
func (d *flatDecoder) columns(family []flatColumn) error {
	for _, c := range family {
		var err error
		switch col := c.col.(type) {
		case *strtab.Column:
			*col, err = d.stringColumn(c.kind)
		case *[]int32:
			*col, err = column[int32](d, c.kind)
		case *[]uint32:
			*col, err = column[uint32](d, c.kind)
		case *[]int64:
			*col, err = column[int64](d, c.kind)
		case *[]float64:
			*col, err = column[float64](d, c.kind)
		case *[]eks.ConceptID:
			*col, err = column[eks.ConceptID](d, c.kind)
		case *[]kb.InstanceID:
			*col, err = column[kb.InstanceID](d, c.kind)
		default:
			panic(fmt.Sprintf("persist: column %s is a %T", c.name, c.col))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// optionalColumns decodes a family a bundle may leave out. A bundle that
// carries it (has) must hold every section of it; one that does not must hold
// none, for a section nothing reads is one its writer meant to be read. absent
// names what says the family is left out.
func (d *flatDecoder) optionalColumns(family []flatColumn, has bool, absent string) error {
	if has {
		return d.columns(family)
	}
	for _, c := range family {
		if _, ok := d.secs[c.kind]; ok {
			return corruptf("flat v4", "%s section present without %s", flatSectionName(c.kind), absent)
		}
	}
	return nil
}
