package repro.bench

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.{count, lit, sum}
import repro.algebra._
import repro.core._
import repro.workloads.{Crimes, Movies}
import BenchUtil._

/** Capture optimizations (paper Sec. 9.2, Fig. 12):
  *   T6 — singleton-sketch creation: chained CASE vs binary-search UDF on
  *        the crimes table (Fig. 12a; paper: ~2 orders of magnitude at 10K)
  *   T7 — sketch merging: naive copying BITOR vs delay vs no-copy on the
  *        movie ratings table (Fig. 12b; paper: 0.5s → 0.2s → 0.16s)
  */
object CaptureOptExperiments {

  /** Returns (T6 rows: (nFrags, caseSec, bsSec), T7 rows: (nFrags, naive, delay, noCopy)). */
  def run(spark: SparkSession, crimesSf: Double, ratingsSf: Double,
          fragCounts: Seq[Int], reps: Int = 3): (Seq[(Int, Double, Double)], Seq[(Int, Double, Double, Double)]) = {
    // --- T6: singleton creation over crimes ------------------------------
    val crimes = cached(Crimes.catalog(spark, crimesSf))("crimes")
    header("T6", "Singleton creation: CASE chain vs binary search (s), cf. Fig. 12a",
      "nFrags", "caseSec", "binSearchSec", "caseOverBs")
    val t6 = for (nf <- fragCounts) yield {
      val p = RangePartition.equiDepth(crimes, "crimes", "cr_id", TLong, nf)
      def initTime(m: Capture.InitMethod): Double = timed(reps = reps) {
        crimes.select(Capture.fragIndexColumn(p, m).as("f")).agg(sum("f")).head()
      }
      val caseSec = initTime(Capture.CaseInit)
      val bsSec   = initTime(Capture.BinSearchInit)
      row("T6", nf, caseSec, bsSec, caseSec / bsSec)
      (nf, caseSec, bsSec)
    }

    // --- T7: merging all singleton sketches over ratings -----------------
    val cat = cached(Map("ratings" -> Movies.catalog(spark, ratingsSf)("ratings")))
    val q = Aggregate(Seq.empty, Seq(Agg(FCount, Col("r_userid"), "c")), Movies.ratings)
    header("T7", "Sketch merge: naive vs delay vs no-copy (s), cf. Fig. 12b",
      "nFrags", "naiveSec", "delaySec", "noCopySec")
    val t7 = for (nf <- fragCounts) yield {
      val p = RangePartition.equiDepth(cat("ratings"), "ratings", "r_movieid", TLong, nf)
      def capTime(m: Capture.MergeMethod): Double = timed(reps = reps) {
        Capture.capture(q, Seq(p), cat, Capture.Config(Capture.BinSearchInit, m))
      }
      val (n, d, nc) = (capTime(Capture.NaiveMerge), capTime(Capture.DelayMerge),
        capTime(Capture.NoCopyMerge))
      row("T7", nf, n, d, nc)
      (nf, n, d, nc)
    }
    (t6, t7)
  }
}
