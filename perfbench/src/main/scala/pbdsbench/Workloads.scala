package pbdsbench

import java.io.File

import scala.util.Random

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.SynthData
import repro.algebra._
import repro.core._
import repro.storage.{TableStore, ZoneMapStore, ZoneMapTableStore}
import repro.workloads.{StackOverflowW, TpchLite}

/** One query of a stream: a template and the binding of its parameters. */
final case class Query(template: Template, binding: Map[String, Any]) {
  lazy val op: Op = Algebra.bind(template.op, binding)
}

/** A table's files on disk: the denominator of the files/bytes-read ratios. */
final case class TableFiles(table: String, dir: String, files: Int, bytes: Long)

/** What a workload's data preparation hands to the generic set-up. */
final class Prepared(
    val store: TableStore,
    val candidates: Map[String, Seq[RangePartition]],
    val stats: SafetyChecker.Stats,
    /** One pass of the measured stream; every pass replays it. */
    val pass: IndexedSeq[Query],
    /** Run during set-up (sketch capture) on `primeRounds` fresh managers;
      * the last one is the measured manager, the others give more capture
      * samples. With no rounds, each pass gets a fresh manager (self-tuning).
      */
    val prime: Seq[Query],
    val primeRounds: Int,
    /** A stream drawn from another seed, run during set-up to settle the JIT. */
    val warmup: Seq[Query],
    val files: Seq[TableFiles],
    val storeBytes: Long,
    val release: () => Unit)

/** A benchmark workload: fixed sizes, data and query streams drawn from a seed. */
trait Workload {
  def name: String
  /** Sizes and physical design, recorded with every result. */
  def describe: Seq[(String, Any)]
  /** Generate the data and build the store; `timed` records each set-up stage. */
  def prepare(spark: SparkSession, seed: Long, dir: File,
              timed: (String, => Any) => Unit): Prepared
}

object Workloads {
  val all: Seq[Workload] = Seq(SelfTuneSof, ReuseTpch)
  def byName(n: String): Option[Workload] = all.find(_.name == n)

  /** Data generator seeds derived from the benchmark seed (one per table). */
  def dataSeed(seed: Long, table: Int): Long = seed * 1000003L + table * 7919L

  /** Run the generators to the end without keeping the rows, so that
    * generation is timed on its own (the `noop` sink prunes no column).
    */
  def generate(tables: Map[String, DataFrame]): Map[String, DataFrame] = {
    tables.values.foreach(_.write.format("noop").mode("overwrite").save())
    tables
  }

  def parquetFiles(dir: String): Seq[File] =
    Option(new File(dir).listFiles()).toSeq.flatten.filter(_.getName.endsWith(".parquet"))

  def tableFiles(table: String, s: ZoneMapStore): TableFiles = {
    val fs = parquetFiles(s.path)
    TableFiles(table, new File(s.path).getCanonicalPath, fs.size, fs.map(_.length).sum)
  }

  def deleteTree(f: File): Unit = {
    Option(f.listFiles()).foreach(_.foreach(deleteTree))
    f.delete()
  }
}

/** Self-tuning over the Stack Overflow tables (paper Sec. 9.5, Fig. 13e).
  *
  * An eager manager sees the three SOF templates with normally distributed,
  * grid-rounded parameters: captures, safety and reuse solving and sketch use
  * all happen inside the measured loop, and the sketch store grows over a pass.
  */
object SelfTuneSof extends Workload {
  val name = "selftune-sof"
  val sf = 0.02
  val fragments = 512
  val zoneFiles: Map[String, Int] = Map("users" -> 8, "posts" -> 16, "comments" -> 16, "badges" -> 16)
  val passLength = 34
  val warmupLength = 12

  private val keys = Map("users" -> "u_id", "posts" -> "p_owner", "comments" -> "cm_user", "badges" -> "b_user")

  def describe: Seq[(String, Any)] = Seq(
    "sf" -> sf, "rows" -> (s"users=${(1250000 * sf).toLong} posts=${(4850000 * sf).toLong} " +
      s"comments=${(7590000 * sf).toLong} badges=${(3590000 * sf).toLong}"),
    "fragments" -> fragments, "zone_files" -> zoneFiles.toSeq.sorted.map { case (t, n) => s"$t=$n" }.mkString(" "),
    "strategy" -> "eager", "queries_per_pass" -> passLength)

  private val templates = Seq(
    Template("postsHaving", StackOverflowW.tPostsHaving),
    Template("commentsInterval", StackOverflowW.tCommentsInterval),
    Template("badgesHaving", StackOverflowW.tBadgesHaving))

  /** Normal draw rounded to a grid, as the T11 generator draws parameters. */
  private def gridNormal(rnd: Random, mu: Double, sdv: Double, grid: Long, lo: Long): Long =
    math.max(lo, math.round((mu + rnd.nextGaussian() * sdv) / grid) * grid)

  /** Seed of the measured stream: the one T11 draws its SOF stream from
    * (`EndToEndExperiments`, seed 17 + 9). The benchmark seed drives the data
    * and the warm-up stream only: the number of captures in a pass, which
    * sets most of its cost, varies twofold from one stream draw to another.
    */
  val streamSeed = 26L

  /** The T11 Stack Overflow stream: mean thresholds sit in the tail of the
    * per-user counts (30x the average), so each query is selective.
    */
  def stream(seed: Long, n: Int): IndexedSeq[Query] = {
    val postsMu = 4850000.0 / 1250000 * 30
    val commentsMu = 7590000.0 / 1250000 * 30
    val badgesMu = 3590000.0 / 1250000 * 30
    val rnd = new Random(seed)
    (1 to n).map { _ =>
      val t = templates(rnd.nextInt(templates.size))
      val b: Map[String, Any] = t.name match {
        case "postsHaving"  => Map("t" -> gridNormal(rnd, postsMu, postsMu * 0.15, 5, 1))
        case "badgesHaving" => Map("t" -> gridNormal(rnd, badgesMu, badgesMu * 0.15, 5, 1))
        case _ =>
          val lo = gridNormal(rnd, commentsMu, commentsMu * 0.15, 5, 1)
          Map("lo" -> lo, "hi" -> (lo + gridNormal(rnd, commentsMu, commentsMu * 0.3, 5, 5)))
      }
      Query(t, b)
    }
  }

  def prepare(spark: SparkSession, seed: Long, dir: File,
              timed: (String, => Any) => Unit): Prepared = {
    import Workloads._
    var gen: Map[String, DataFrame] = null
    timed("workloads.datagen_s", {
      gen = generate(Map(
        "users"    -> SynthData.sofUsers(spark, sf, dataSeed(seed, 1)),
        "posts"    -> SynthData.sofPosts(spark, sf, dataSeed(seed, 2)),
        "comments" -> SynthData.sofComments(spark, sf, dataSeed(seed, 3)),
        "badges"   -> SynthData.sofBadges(spark, sf, dataSeed(seed, 4))))
    })
    var zms: Map[String, ZoneMapStore] = null
    timed("storage.zonemap_write_s", {
      zms = gen.map { case (t, df) =>
        t -> ZoneMapStore.write(df, new File(dir, t).getPath, keys(t), zoneFiles(t))
      }
    })
    val store = new ZoneMapTableStore(zms)
    var cands: Map[String, Seq[RangePartition]] = null
    timed("stats.equidepth_s", {
      cands = keys.map { case (t, a) =>
        t -> Seq(RangePartition.equiDepth(store.scan(spark, t), t, a, TLong, fragments))
      }
    })
    val files = zms.toSeq.map { case (t, s) => tableFiles(t, s) }
    new Prepared(store, cands, SafetyChecker.Stats(), stream(streamSeed, passLength),
      prime = Nil, primeRounds = 0,
      warmup = stream(seed ^ 0x5eedL, warmupLength),
      files, files.map(_.bytes).sum, () => deleteTree(dir))
  }
}

/** Repeated TPC-H-lite queries with sketches captured in set-up.
  *
  * Q3, Q10 and Q18 are selective top-k queries, Q1 is non-selective and must
  * be sent to plain execution. Each table is stored as Parquet clustered on
  * its candidate attribute, so a sketch prunes files.
  */
object ReuseTpch extends Workload {
  val name = "reuse-zonemap-tpch"
  val sf = 0.01
  val fragments = 1024
  val zoneFiles: Map[String, Int] = Map("lineitem" -> 16, "orders" -> 8, "customer" -> 4)
  val cyclesPerPass = 5
  val warmupCycles = 2
  val primeRounds = 2

  private val keys = Map("lineitem" -> "l_orderkey", "orders" -> "o_orderkey", "customer" -> "c_custkey")
  private val queryNames = Seq("Q1", "Q3", "Q10", "Q18")

  def describe: Seq[(String, Any)] = Seq(
    "sf" -> sf, "rows" -> (s"lineitem=${(6000000 * sf).toLong} orders=${(1500000 * sf).toLong} " +
      s"customer=${(150000 * sf).toLong}"),
    "fragments" -> fragments,
    "zone_files" -> zoneFiles.toSeq.sorted.map { case (t, n) => s"$t=$n" }.mkString(" "),
    "candidates" -> keys.toSeq.sorted.map { case (t, a) => s"$t.$a" }.mkString(" "),
    "strategy" -> "eager", "queries_per_pass" -> cyclesPerPass * queryNames.size,
    "capture_rounds" -> primeRounds)

  private val templates: Seq[Template] =
    queryNames.map(n => Template(n, TpchLite.queries.find(_.name == n).get.q))

  /** Round-robin over the four queries, in an order drawn from the seed. */
  def cycle(seed: Long): Seq[Query] = new Random(seed).shuffle(templates).map(Query(_, Map.empty))

  def prepare(spark: SparkSession, seed: Long, dir: File,
              timed: (String, => Any) => Unit): Prepared = {
    import Workloads._
    var gen: Map[String, DataFrame] = null
    timed("workloads.datagen_s", {
      gen = generate(Map(
        "lineitem" -> SynthData.lineitem(spark, sf, dataSeed(seed, 1)),
        "orders"   -> SynthData.orders(spark, sf, dataSeed(seed, 2)),
        "customer" -> SynthData.customer(spark, sf, dataSeed(seed, 3))))
    })
    var zms: Map[String, ZoneMapStore] = null
    timed("storage.zonemap_write_s", {
      zms = gen.map { case (t, df) =>
        t -> ZoneMapStore.write(df, new File(dir, t).getPath, keys(t), zoneFiles(t))
      }
    })
    val store = new ZoneMapTableStore(zms)
    var cands: Map[String, Seq[RangePartition]] = null
    timed("stats.equidepth_s", {
      cands = keys.map { case (t, a) =>
        val tpe = Algebra.baseTypes(TpchLite.q3)(a)
        t -> Seq(RangePartition.equiDepth(store.scan(spark, t), t, a, tpe, fragments))
      }
    })
    val files = zms.toSeq.map { case (t, s) => tableFiles(t, s) }
    val order = cycle(seed)
    new Prepared(store, cands, TpchLite.stats(sf),
      IndexedSeq.fill(cyclesPerPass)(order).flatten,
      prime = order, primeRounds = primeRounds,
      warmup = Seq.fill(warmupCycles)(cycle(seed ^ 0x5eedL)).flatten,
      files, files.map(_.bytes).sum, () => deleteTree(dir))
  }
}
