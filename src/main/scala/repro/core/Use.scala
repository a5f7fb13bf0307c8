package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import repro.algebra._

/** Using provenance sketches (paper Sec. 8).
  *
  * `Q[P]` is the identity on every operator except table accesses, which are
  * wrapped in a selection decoding the sketch (Eq. 2). On Spark, sketches are
  * applied at the scan (`TableStore.scanWithSketch`), which filters with
  * `residual`.
  */
object Use {

  /** IR-level instrumentation Q[P]. */
  def instrument(q: Op, sketches: Map[String, CapturedSketch]): Op =
    Algebra.transformTables(q) { t =>
      sketches.get(t.name) match {
        case Some(s) => Select(s.toPred, t)
        case None    => t
      }
    }

  /** Membership test via binary search over the partition's ranges. */
  def membershipColumn(s: CapturedSketch): Column = s.partition.lookup(s.bits.get)

  /** Row filter for a sketch-restricted scan, following Sec. 8.1: the OR of
    * merged ranges for up to 512 ranges (Parquet pushes it down → row-group
    * skipping), the O(log n) binary-search membership UDF above that —
    * evaluating thousands of disjunctions per tuple would otherwise
    * dominate, exactly the pathology the paper optimizes.
    */
  def residual(s: CapturedSketch): Column =
    if (s.partition.mergedRanges(s.fragments).size <= 512) ToSpark.pred(s.toPred)
    else membershipColumn(s)

  /** Runtime re-validation for τ_{O,C} (paper footnote 1): under the sketch,
    * every top-k input must still hold at least C tuples, otherwise the
    * sketch-restricted answer may be short and the caller must fall back.
    * `sketchCatalog` holds the sketch-restricted scans of the sketched tables.
    */
  def revalidateTopK(q: Op, sketchCatalog: Map[String, DataFrame]): Boolean = {
    def topKs(op: Op): Seq[TopK] = (op match {
      case t: TopK => Seq(t)
      case _       => Seq.empty
    }) ++ op.children.flatMap(topKs)
    topKs(q).forall { tk =>
      ToSpark.compile(tk.child, sketchCatalog).limit(tk.k).count() >= tk.k
    }
  }
}
