package repro.bench

import org.apache.spark.sql.SparkSession
import repro.storage.MemTableStore
import repro.workloads.TpchLite
import BenchUtil._

/** T5 — main-memory system analog (paper Fig. 11f–i, MonetDB): cached
  * DataFrames, no physical design to exploit; a sketch only reduces the
  * data flowing into joins/aggregations at the price of evaluating its
  * decode condition per tuple. Expect smaller (sometimes negative at high
  * fragment counts) benefit than the disk store, as in the paper.
  */
object MemExperiments {

  def run(spark: SparkSession, sf: Double, fragCounts: Seq[Int], reps: Int = 3): Unit = {
    spark.conf.set("spark.sql.shuffle.partitions", "16")
    val mem = cached(TpchLite.catalog(spark, sf))
    val store = new MemTableStore(mem)
    header("T5", "Main-memory (MonetDB analog): runtime and capture overhead, cf. Fig. 11f-i",
      "query", "variant", "seconds", "speedup", "captureSec", "captureOverheadPct")
    for (w <- TpchLite.queries if w.name != "Q1") {
      val (noPs, options) = costs(spark, store, mem, w.name, w.q, w.sketchAttrs, fragCounts, reps)
      row("T5", w.name, "No-PS", noPs, 1.0, 0.0, 0.0)
      for (o <- options)
        row("T5", w.name, s"PS${o.nFrags}", o.use, noPs / o.use, o.cap, (o.cap / noPs - 1) * 100)
    }
  }
}
