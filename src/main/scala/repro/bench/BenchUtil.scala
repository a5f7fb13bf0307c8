package repro.bench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.Oracle
import repro.algebra._
import repro.core.{Capture, CapturedSketch, RangePartition}
import repro.storage.TableStore

/** Timing and table-printing helpers shared by the benchmark suites and the
  * spark-submit jobs. Every experiment prints `TABLE <id> | col | …` rows so
  * EXPERIMENTS.md can be regenerated by grepping bench output.
  */
object BenchUtil {

  /** Wall-clock seconds of one evaluation (forces the DataFrame). */
  def time[T](f: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = f
    (r, (System.nanoTime() - t0) / 1e9)
  }

  /** Median of `reps` timed runs after `warmup` untimed ones. */
  def timed(warmup: Int = 1, reps: Int = 3)(f: => Unit): Double = {
    (1 to warmup).foreach(_ => f)
    val ts = (1 to reps).map(_ => time(f)._2).sorted
    ts(ts.size / 2)
  }

  /** Force a DataFrame without collecting rows to the driver. */
  def run(df: DataFrame): Long = df.count()

  def row(table: String, cols: Any*): Unit = {
    val cells = cols.map {
      case d: Double => f"$d%.4f"
      case x         => String.valueOf(x)
    }
    println((s"TABLE $table" +: cells).mkString(" | "))
  }

  def header(table: String, title: String, cols: String*): Unit = {
    println(s"TABLE $table # $title")
    println((s"TABLE $table" +: cols).mkString(" | "))
  }

  /** Cache the generator tables and materialize them before any timed run. */
  def cached(tables: Map[String, DataFrame]): Map[String, DataFrame] = {
    val c = tables.map { case (k, v) => k -> v.cache() }
    c.values.foreach(_.count())
    c
  }

  /** One equi-depth partition per sketched table of `q`, on its sketch attr. */
  def partitions(tables: Map[String, DataFrame], q: Op, sketchAttrs: Map[String, String],
                 nFrags: Int): Seq[RangePartition] = {
    val types = Algebra.baseTypes(q)
    sketchAttrs.map { case (t, a) => RangePartition.equiDepth(tables(t), t, a, types(a), nFrags) }.toSeq
  }

  /** `q`'s answer in `Oracle`'s canonical form (doubles to 6 significant digits). */
  def answer(q: Op, catalog: Map[String, DataFrame]): Seq[Seq[String]] = {
    val df = ToSpark.compile(q, catalog)
    Oracle.canon(df.collect().toSeq, df.columns.toSeq)
  }

  /** Answer gate: a PS run must return the No-PS answer, else the run fails. */
  def requireAnswer(q: Op, catalog: Map[String, DataFrame], expected: Seq[Seq[String]],
                    label: String): Unit = {
    val got = answer(q, catalog)
    require(got == expected,
      s"$label: PS answer differs from No-PS (${got.size} vs ${expected.size} rows): " +
      s"PS-only ${got.diff(expected).take(3)}, No-PS-only ${expected.diff(got).take(3)}")
  }

  /** One PS option: its sketches, capture run C_cap and use run C_use (s). */
  final case class PsCost(nFrags: Int, sketches: Map[String, CapturedSketch], cap: Double, use: Double)

  /** The paper's cost triple (Sec. 9.3, Fig. 14) for `q` on `store`: C_noPS
    * over `store.catalog`; per fragment count, C_cap over that catalog
    * (partitions built from `tables`) and C_use over `store.sketchCatalog`.
    * Every option passes the answer gate, outside the timed runs.
    */
  def costs(spark: SparkSession, store: TableStore, tables: Map[String, DataFrame],
            label: String, q: Op, sketchAttrs: Map[String, String], fragCounts: Seq[Int],
            reps: Int): (Double, Seq[PsCost]) = {
    val catalog = store.catalog(spark)
    val noPs = timed(reps = reps)(run(ToSpark.compile(q, catalog)))
    val expected = answer(q, catalog)
    val options = fragCounts.map { nf =>
      val parts = partitions(tables, q, sketchAttrs, nf)
      val (sketches, cap) = time(Capture.capture(q, parts, catalog))
      val psCatalog = store.sketchCatalog(spark, sketches)
      val use = timed(reps = reps)(run(ToSpark.compile(q, psCatalog)))
      requireAnswer(q, psCatalog, expected, s"$label PS$nf")
      PsCost(nf, sketches, cap, use)
    }
    (noPs, options)
  }

  /** Fig. 14 computation: given the measured cost of running plain
    * (cNoPs), capturing (cCap) and using a sketch (cUse) per option, return
    * for each repetition-count interval [from, to) the option minimizing
    * total cost cCap + n·cUse (or n·cNoPs for No-PS). Mirrors the paper's
    * formulas; ties go to the earlier option, No-PS first.
    */
  def optimalIntervals(cNoPs: Double, options: Seq[(String, Double, Double)],
                       maxN: Int = 100000): Seq[(String, Int, Option[Int])] = {
    val all = ("No-PS", 0.0, cNoPs) +: options
    def best(n: Int): String = all.minBy { case (_, cap, use) => cap + use * n }._1
    // Costs are lines in n, so the winner can only change where two of them
    // cross: at ⌊x⌋ or ⌊x⌋+1 for a crossing x. One more point on each side
    // absorbs floating-point error in x.
    val crossings = for {
      (a, i) <- all.zipWithIndex; b <- all.drop(i + 1) if a._3 != b._3
      x = (b._2 - a._2) / (a._3 - b._3)
      if x >= 0 && x <= maxN
      n <- (x.floor.toInt - 1) to (x.floor.toInt + 2)
    } yield n
    val points = (1 +: crossings.filter(n => n >= 1 && n <= maxN)).distinct.sorted
    val winners = points.map(n => (best(n), n))
    val starts = winners.head +: winners.zip(winners.tail).collect {
      case ((prev, _), cur @ (name, _)) if name != prev => cur
    }
    starts.zip(starts.tail.map(s => Option(s._2)) :+ None).map {
      case ((name, from), to) => (name, from, to)
    }
  }
}
