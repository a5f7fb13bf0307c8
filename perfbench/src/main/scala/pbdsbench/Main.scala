package pbdsbench

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory

import java.util.concurrent.Executors

import scala.collection.mutable
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration
import scala.util.{Failure, Success, Try}

import org.apache.spark.sql.{Row, SparkSession}
import repro.algebra._
import repro.core._
import repro.storage.TableStore

/** Closed-loop PBDS benchmark: one client, one query at a time.
  *
  *   pbdsbench.Main --workload NAME --seed N --seconds S --trace 0|1 --out DIR --data DIR
  *
  * Set-up builds the data, the store, the statistics, the reference answers
  * and the captured sketches, and runs a warm-up stream. The measured loop
  * replays fixed passes of the workload's query stream until `seconds`
  * have passed and at least `MinQueries` queries ran (the traced run: see
  * `Bench.tracedPass`). Every answer is checked
  * against plain execution over the full-scan catalog. The last stdout line is
  * the JSON result; `--trace 1` reports the per-layer metrics instead of the
  * end-to-end ones.
  */
object Main {
  // At least 12 samples beyond p80.
  val MinQueries = 60
  // Traced run: the untraced first pass and one T U U T block.
  val MinTracedPasses = 5
  // Two task threads leave the other cores of a 4-core machine to the JIT
  // compilers, the GC and the driver: runs are steadier than with four, at
  // the same latency on these small tables.
  val MaxThreads = 2
  val ShufflePartitions = 4
  val BroadcastBytes = 10L * 1024 * 1024

  final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        out: File, data: File)

  private def usage(msg: String): Nothing = {
    System.err.println(s"pbdsbench: $msg")
    System.err.println("usage: --workload NAME --seed N --seconds S --trace 0|1 --out DIR --data DIR")
    System.err.println(s"workloads: ${Workloads.all.map(_.name).mkString(", ")}")
    sys.exit(2)
  }

  def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => usage(s"bad argument ${other.mkString(" ")}")
    }.toMap
    def get(k: String) = kv.getOrElse(k, usage(s"missing --$k"))
    Try(Opts(get("workload"), get("seed").toLong, get("seconds").toDouble,
      get("trace") match { case "1" => true; case "0" => false; case t => usage(s"bad --trace $t") },
      new File(get("out")), new File(get("data")))).getOrElse(usage("bad argument value"))
  }

  def session(threads: Int, opts: Opts): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$threads]")
      .appName("pbds-perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toString)
      .config("spark.sql.adaptive.enabled", "false")
      .config("spark.sql.autoBroadcastJoinThreshold", BroadcastBytes.toString)
      .config("spark.local.dir", new File(opts.data, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(opts.data, "warehouse").getAbsolutePath)
      // Keep little history of finished jobs and queries, so that the heap
      // left after the loop holds the program's state, not Spark's.
      .config("spark.ui.retainedJobs", "50")
      .config("spark.ui.retainedStages", "50")
      .config("spark.ui.retainedTasks", "500")
      .config("spark.sql.ui.retainedExecutions", "20")
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  def main(args: Array[String]): Unit = {
    val opts = parse(args)
    val wl = Workloads.byName(opts.workload).getOrElse(usage(s"unknown workload ${opts.workload}"))
    val threads = math.min(MaxThreads, Runtime.getRuntime.availableProcessors)
    val spark = session(threads, opts)
    val code =
      try new Bench(spark, wl, opts, threads).execute()
      catch { case e: Throwable => e.printStackTrace(); 1 }
      finally spark.stop()
    sys.exit(code)
  }
}

/** Helpers for answers, order statistics and JSON. */
object Util {
  /** Sorted rows, doubles rounded to 6 significant digits: Spark's partition
    * order changes the last digits of double sums.
    */
  def canon(rows: Array[Row]): Seq[String] =
    rows.map(r => (0 until r.length).map(i => r.get(i) match {
      case null                     => "NULL"
      case d: Double                => f"$d%.6g"
      case f: Float                 => f"${f.toDouble}%.6g"
      case bd: java.math.BigDecimal => f"${bd.doubleValue}%.6g"
      case x                        => x.toString
    }).mkString("|")).sorted.toSeq

  /** Linear-interpolated quantile of unsorted samples; 0 when empty. */
  def quantile(xs: Seq[Double], q: Double): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted.toIndexedSeq
      val pos = q * (s.size - 1)
      val lo = math.floor(pos).toInt
      val hi = math.min(lo + 1, s.size - 1)
      s(lo) + (s(hi) - s(lo)) * (pos - lo)
    }
  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)
  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size
  def ratio(a: Double, b: Double): Double = if (b == 0) 0.0 else a / b

  def json(v: Any): String = v match {
    case s: String  => "\"" + s.flatMap {
      case '"' => "\\\""; case '\\' => "\\\\"; case c if c < ' ' => f"\\u${c.toInt}%04x"; case c => c.toString
    } + "\""
    case d: Double  => if (d.isNaN || d.isInfinite) "null" else d.toString
    case b: Boolean => b.toString
    case n: Int     => n.toString
    case n: Long    => n.toString
    case m: Map[_, _] => m.map { case (k, x) => json(k.toString) + ": " + json(x) }.mkString("{", ", ", "}")
    case s: Seq[_]  => s.map(json).mkString("[", ", ", "]")
    case x          => json(x.toString)
  }
}

/** One measured query. */
final case class QueryRecord(pass: Int, pos: Int, traced: Boolean, query: Long, template: String,
                             action: String, ms: Double, ok: Boolean, rows: Int,
                             reuseChecks: Int, safetyChecks: Int, window: Option[Window])

final class Bench(spark: SparkSession, wl: Workload, opts: Main.Opts, threads: Int) {
  import Util._

  private val tracer = new Tracer
  private val errors = mutable.ArrayBuffer.empty[String]
  /** Broken benchmark invariants (replay or pass disagreement): exit 1. */
  private var invariantBroken = false
  private val stageTimes = mutable.LinkedHashMap.empty[String, Double]
  private var setupS = 0.0
  private val primeCaptureMs = mutable.ArrayBuffer.empty[Double]
  private var setupMismatches = 0

  private def log(s: String): Unit = println(s"# $s")
  private def broken(msg: String): Unit = { errors += msg; invariantBroken = true }

  private final class Env(val p: Prepared, val store: TableStore,
                          val reference: Map[Query, Seq[String]], val primed: Option[PbdsManager])

  private def manager(p: Prepared, store: TableStore): PbdsManager =
    new PbdsManager(spark, store, p.candidates, p.stats, strategy = Pbds.Eager)

  private def actionName(a: Pbds.Action): String = a match {
    case Pbds.NoPs       => "plain"
    case Pbds.CaptureRun => "capture"
    case Pbds.SketchUse  => "use"
    case Pbds.Fallback   => "fallback"
  }

  private def setup(): Env = {
    val t0 = System.nanoTime()
    val dir = new File(opts.data, s"${wl.name}-seed${opts.seed}")
    Workloads.deleteTree(dir)
    def timed(k: String, f: => Any): Unit = {
      val s = System.nanoTime(); f
      stageTimes(k) = (System.nanoTime() - s) / 1e9
    }
    val p = wl.prepare(spark, opts.seed, dir, timed)
    var reference: Map[Query, Seq[String]] = null
    timed("bench.reference_s", {
      // Plain answers, computed by `threads` concurrent Spark jobs.
      val catalog = p.store.catalog(spark)
      val pool = Executors.newFixedThreadPool(threads)
      try {
        implicit val ec: ExecutionContext = ExecutionContext.fromExecutor(pool)
        val fs = (p.pass ++ p.prime).distinct.map(q =>
          Future(q -> canon(ToSpark.compile(q.op, catalog).collect())))
        reference = fs.map(Await.result(_, Duration.Inf)).toMap
      } finally pool.shutdown()
    })
    // The warm-up runs on a manager of its own, before the measured manager
    // is primed, so that set-up captures run with a warm JIT too.
    timed("bench.warmup_s", {
      val m = manager(p, p.store)
      p.warmup.foreach(q => m.run(q.template, q.binding)._1.collect())
    })
    val store = if (opts.trace) new TracingStore(p.store, tracer) else p.store
    var primed: Option[PbdsManager] = None
    timed("core.setup_capture_s", {
      for (_ <- 1 to p.primeRounds) {
        val m = manager(p, store)
        p.prime.foreach { q =>
          val s = System.nanoTime()
          val (df, d) = m.run(q.template, q.binding)
          val rows = df.collect()
          if (d.action == Pbds.CaptureRun) primeCaptureMs += (System.nanoTime() - s) / 1e6
          if (canon(rows) != reference(q)) setupMismatches += 1
        }
        primed = Some(m)
      }
    })
    setupS = (System.nanoTime() - t0) / 1e9
    new Env(p, store, reference, primed)
  }

  // --- traced-run replay of the manager's solver calls ----------------------

  private def groupAttrs(op: Op): Set[String] = (op match {
    case Aggregate(g, _, _) => g.toSet
    case _                  => Set.empty[String]
  }) ++ op.children.flatMap(groupAttrs)

  /** The `SafetyChecker.isSafe` calls `PbdsManager` makes on a template's
    * first query, in its order: returns (calls, first safe combination).
    */
  private def replaySafety(p: Prepared, q: Query): (Int, Option[Map[String, RangePartition]]) = {
    val op = q.op
    val grouped = groupAttrs(op)
    val perTable = p.candidates.filter { case (t, ps) =>
      ps.nonEmpty && Algebra.tables(op).exists(_.name == t)
    }.map { case (t, ps) => t -> ps.sortBy(x => if (grouped.contains(x.attr)) 0 else 1) }
    if (perTable.isEmpty) return (0, None)
    val tables = perTable.keys.toSeq
    val combos = tables.foldLeft(Iterator(Map.empty[String, RangePartition])) { (acc, t) =>
      acc.flatMap(m => perTable(t).iterator.map(x => m + (t -> x)))
    }
    val singles = tables.iterator.flatMap(t => perTable(t).iterator.map(x => Map(t -> x)))
    var calls = 0
    val found = (combos ++ singles).take(64).find { m =>
      calls += 1
      tracer.span("smt.safety_check")(SafetyChecker.isSafe(op, m.values.map(_.attr).toSet, p.stats))
    }
    (calls, found)
  }

  /** The reuse lookup: exact binding first, else `canReuse` over the stored
    * bindings in the manager's order. Returns (solver calls, reused binding).
    */
  private def replayReuse(p: Prepared, q: Query, stored: Seq[Map[String, Any]]): (Int, Option[Map[String, Any]]) =
    if (stored.contains(q.binding)) (0, Some(q.binding))
    else {
      var calls = 0
      val found = stored.find { old =>
        calls += 1
        tracer.span("smt.reuse_check")(ReuseChecker.canReuse(q.template.op, old, q.binding, p.stats))
      }
      (calls, found)
    }

  // --- measured loop -----------------------------------------------------------

  private def runQuery(env: Env, m: PbdsManager, q: Query, qid: Long, pass: Int, pos: Int, traced: Boolean,
                       firstSeen: Boolean, rec: Option[SparkRecorder]): QueryRecord = {
    tracer.query = qid
    val stored = if (traced) m.sketchesFor(q.template.name) else Nil
    val t0 = System.nanoTime()
    val res = Try {
      val (df, d) = tracer.span("core.decide")(m.run(q.template, q.binding))
      (df.collect(), d)
    }
    val t1 = System.nanoTime()
    val ms = (t1 - t0) / 1e6
    res match {
      case Failure(e) =>
        errors += s"query $qid ${q.template.name} ${q.binding}: $e"
        QueryRecord(pass, pos, traced, qid, q.template.name, "error", ms, ok = false, 0, 0, 0, None)
      case Success((rows, d)) =>
        val ok = canon(rows) == env.reference(q)
        if (!ok) errors += s"query $qid ${q.template.name} ${q.binding}: answer differs from plain execution"
        var window: Option[Window] = None
        var reuseN = 0; var safetyN = 0
        if (traced) {
          tracer.add("bench.query", t0, t1)
          window = rec.map(_.drain())
          window.foreach(_.execs.foreach { e =>
            tracer.add(s"spark.exec.${e.kind}", e.startNs, e.endNs)
            e.phases.foreach { case (n, a, b) => tracer.add(s"spark.plan.$n", a, b) }
          })
          val r0 = System.nanoTime()
          if (firstSeen) {
            val (n, safe) = replaySafety(env.p, q)
            safetyN = n
            if (safe.isEmpty != (d.action == Pbds.NoPs))
              broken(s"replay: safety says ${safe.isDefined} but the manager chose ${d.action} for ${q.template.name}")
          }
          if (d.action != Pbds.NoPs) {
            val (n, found) = replayReuse(env.p, q, stored)
            reuseN = n
            if (found != d.reusedFrom)
              broken(s"replay: reuse found $found but the manager reused ${d.reusedFrom} for ${q.template.name} ${q.binding}")
          }
          tracer.add("bench.replay", r0, System.nanoTime())
        }
        QueryRecord(pass, pos, traced, qid, q.template.name, actionName(d.action), ms, ok, rows.length,
          reuseN, safetyN, window)
    }
  }

  /** In the traced run, the first pass is untraced: it still warms up. Then
    * traced (T) and untraced (U) passes follow in T U U T blocks, so that a
    * drift over the loop weighs on both kinds alike.
    */
  private def tracedPass(pass: Int): Boolean =
    opts.trace && pass > 0 && ((pass - 1) % 4 == 0 || (pass - 1) % 4 == 3)

  /** The measured loop: the records, the number of passes and the last
    * pass's manager, which the heap measurement must still reach.
    */
  private def measure(env: Env): (Seq[QueryRecord], Int, PbdsManager) = {
    val rec = if (opts.trace) Some(new SparkRecorder(spark, env.p.files)) else None
    val records = mutable.ArrayBuffer.empty[QueryRecord]
    val primedSeen = mutable.Set.empty[String] ++ env.p.prime.map(_.template.name)
    val start = System.nanoTime()
    var pass = 0
    var qid = 0L
    var m: PbdsManager = null
    def elapsed = (System.nanoTime() - start) / 1e9
    def more =
      if (!opts.trace) pass == 0 || elapsed < opts.seconds || records.size < Main.MinQueries
      else pass < Main.MinTracedPasses || (pass - 1) % 4 != 0 || elapsed < opts.seconds
    while (more) {
      val traced = tracedPass(pass)
      m = env.primed.getOrElse(manager(env.p, env.store))
      val seen = if (env.primed.isDefined) primedSeen else mutable.Set.empty[String]
      // The listener only listens to traced passes; the first drain drops
      // events of earlier queries still on the bus.
      if (traced) rec.foreach { r => r.register(); r.drain(); tracer.enabled = true }
      env.p.pass.zipWithIndex.foreach { case (q, pos) =>
        qid += 1
        records += runQuery(env, m, q, qid, pass, pos, traced, seen.add(q.template.name), rec)
      }
      if (traced) rec.foreach { r => tracer.enabled = false; r.unregister() }
      pass += 1
    }
    rec.foreach(r => if (r.unpaired > 0) log(s"${r.unpaired} Spark executions had no end event; placed at drain time"))
    (records.toSeq, pass, m)
  }

  // --- reporting ---------------------------------------------------------------

  /** Heap in use after full GCs. Spark's ContextCleaner frees broadcast
    * blocks of collected plans asynchronously, so collect, wait, repeat.
    */
  private def heapMb(): Double = {
    val mx = ManagementFactory.getMemoryMXBean
    for (_ <- 1 to 3) { System.gc(); Thread.sleep(200) }
    System.gc()
    mx.getHeapMemoryUsage.getUsed / 1048576.0
  }

  private def actionCounts(rs: Seq[QueryRecord]): Map[String, Int] =
    Seq("plain", "capture", "use", "fallback", "error").map(a => a -> rs.count(_.action == a)).toMap

  def execute(): Int = {
    val uptime = () => ManagementFactory.getRuntimeMXBean.getUptime / 1000.0
    log(f"jvm uptime at set-up start ${uptime()}%.3f s")
    val describe = wl.describe
    val env = setup()
    val loopStart = System.nanoTime()
    val (records, passes, lastManager) = measure(env)
    val loopS = (System.nanoTime() - loopStart) / 1e9
    val heap = heapMb()
    // The heap figure includes the last manager and its sketch store.
    java.lang.ref.Reference.reachabilityFence(lastManager)
    env.p.release()

    // Actions must repeat exactly from pass to pass.
    val byPass = records.groupBy(_.pass).toSeq.sortBy(_._1)
    val firstCounts = actionCounts(byPass.head._2)
    for ((p, rs) <- byPass if actionCounts(rs) != firstCounts)
      broken(s"pass $p actions ${actionCounts(rs)} differ from pass 0 $firstCounts")
    if (setupMismatches > 0) errors += s"$setupMismatches set-up answers differ from plain execution"

    val failed = records.count(!_.ok)
    val lat = records.filter(_.ok).map(_.ms)
    val ofAction = (a: String) => records.filter(r => r.ok && r.action == a).map(_.ms)
    val captureLat = if (ofAction("capture").nonEmpty) ofAction("capture") else primeCaptureMs.toSeq
    val e2e: Seq[(String, Double, String)] = Seq(
      ("queries_per_s", records.size / loopS, "1/s"),
      ("query_ms_p50", median(lat), "ms"),
      ("query_ms_p80", quantile(lat, 0.8), "ms"),
      ("capture_query_ms_p50", median(captureLat), "ms"),
      ("use_query_ms_p50", median(ofAction("use")), "ms"),
      ("answers_ok_frac", 1.0 - ratio(failed, records.size), "frac"),
      ("setup_s", setupS, "s"),
      ("store_mb", env.p.storeBytes / 1048576.0, "MB"),
      ("retained_heap_mb", heap, "MB"))

    val provenance: Seq[(String, Any)] = Seq(
      "workload" -> wl.name, "seed" -> opts.seed, "trace" -> opts.trace,
      "nproc" -> Runtime.getRuntime.availableProcessors, "master" -> spark.sparkContext.master,
      "task_threads" -> threads, "driver_heap_max_mb" -> Runtime.getRuntime.maxMemory / 1048576,
      "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
      "auto_broadcast_join_threshold" -> spark.conf.get("spark.sql.autoBroadcastJoinThreshold"),
      "adaptive" -> spark.conf.get("spark.sql.adaptive.enabled"),
      "spark_version" -> spark.version,
      "passes" -> passes, "queries" -> records.size, "loop_s" -> loopS,
      "capture_samples" -> captureLat.size) ++ describe
    log("provenance " + json(provenance.toMap))
    log(f"set-up $setupS%.3f s")
    for ((k, t) <- stageTimes) log(f"set-up stage $k%-26s $t%.3f s")
    if (primeCaptureMs.nonEmpty) log("set-up captures " + primeCaptureMs.map(x => f"$x%.0f").mkString(" ") + " ms")
    for ((t, rs) <- records.groupBy(_.template).toSeq.sortBy(_._1)) {
      val acts = rs.groupBy(_.action).map { case (a, xs) => s"$a=${xs.size}" }.toSeq.sorted.mkString(" ")
      val scans = rs.flatMap(_.window.toSeq).flatMap(_.execs.filter(_.kind == "main")).flatMap(_.scans)
      val files = if (scans.isEmpty) "" else
        f" files_read=${scans.map(_.files).sum}/${scans.map(_.tableFiles).sum}"
      log(f"template $t%-18s n=${rs.size}%4d p50=${median(rs.map(_.ms))}%9.2f ms " +
        f"rows=${median(rs.map(_.rows.toDouble))}%.0f  $acts$files")
    }
    errors.take(20).foreach(e => log(s"ERROR $e"))
    log(f"failed_frac ${ratio(failed, records.size)}%.6f frac ($failed of ${records.size})")

    val metrics: Seq[(String, Double, String)] =
      if (!opts.trace) e2e else perLayer(records, firstCounts)
    metrics.foreach { case (n, v, u) => log(f"$n%-40s $v%14.4f $u") }

    val outBase = new File(opts.out, s"${wl.name}-seed${opts.seed}-trace${if (opts.trace) 1 else 0}")
    if (opts.trace) tracer.write(new File(outBase.getPath + "-spans.jsonl"))
    writeQueries(new File(outBase.getPath + "-queries.jsonl"), records)
    val correct = errors.isEmpty
    val result = "{" + Seq(
      "\"correct\": " + correct,
      "\"attempted\": " + records.size,
      "\"failed\": " + failed,
      "\"metrics\": " + metrics.map { case (n, v, u) =>
        json(n) + ": {\"value\": " + json(v) + ", \"unit\": " + json(u) + "}" }.mkString("{", ", ", "}")
    ).mkString(", ") + "}"
    opts.out.mkdirs()
    val w = new PrintWriter(new File(outBase.getPath + ".json"), "UTF-8")
    try { w.println(json(provenance.toMap)); w.println(result) } finally w.close()
    log(f"jvm uptime at result ${uptime()}%.3f s")
    println(result)
    if (invariantBroken) 1 else 0
  }

  private def writeQueries(f: File, records: Seq[QueryRecord]): Unit = {
    f.getParentFile.mkdirs()
    val w = new PrintWriter(f, "UTF-8")
    try records.foreach { r =>
      w.println(json(Map("query" -> r.query, "pass" -> r.pass, "traced" -> r.traced,
        "template" -> r.template, "action" -> r.action, "ms" -> r.ms, "ok" -> r.ok, "rows" -> r.rows)))
    } finally w.close()
  }

  private def perLayer(records: Seq[QueryRecord], counts: Map[String, Int]): Seq[(String, Double, String)] = {
    val traced = records.filter(_.traced)
    val nPass = traced.map(_.pass).distinct.size.toDouble
    val nq = traced.size.toDouble
    val spans = tracer.all
    val self = tracer.selfNs
    val tracedIds = traced.map(_.query).toSet
    def spansNamed(n: String) = spans.filter(s => s.name == n && tracedIds.contains(s.query))
    val execs = traced.flatMap(_.window.toSeq).flatMap(_.execs)
    def execOf(k: String) = execs.filter(_.kind == k)
    val mainOf = (rs: Seq[QueryRecord]) => rs.flatMap(_.window.toSeq).flatMap(_.execs.filter(_.kind == "main"))
    def fileFrac(rs: Seq[QueryRecord], f: ScanStats => Long, tot: ScanStats => Long): Double = {
      val ss = mainOf(rs).flatMap(_.scans)
      ratio(ss.map(f).sum.toDouble, ss.map(tot).sum.toDouble)
    }
    // Tracing cost per query: for each position in the pass, the mean latency
    // of the traced passes against that of the untraced ones after the first.
    val overhead = records.filter(r => r.pass > 0 && r.ok).groupBy(_.pos).values.toSeq.flatMap { rs =>
      val (t, u) = rs.partition(_.traced)
      if (t.isEmpty || u.isEmpty) None else Some(mean(t.map(_.ms)) / mean(u.map(_.ms)) - 1.0)
    }
    val layerSelf = spans.filter(s => tracedIds.contains(s.query)).groupBy(_.layer)
      .map { case (l, ss) => l -> ss.map(s => self(s.id)).sum / 1e6 }
    val total = counts.values.sum.toDouble
    val st = (k: String) => stageTimes.getOrElse(k, 0.0)
    Seq(
      ("smt.reuse_checks", traced.map(_.reuseChecks).sum / nPass, "count"),
      ("smt.reuse_check_ms", mean(spansNamed("smt.reuse_check").map(_.ms)), "ms"),
      ("smt.safety_checks", traced.map(_.safetyChecks).sum / nPass, "count"),
      ("smt.safety_check_ms", mean(spansNamed("smt.safety_check").map(_.ms)), "ms"),
      ("core.decide_ms", mean(spansNamed("core.decide").map(_.ms)), "ms"),
      ("core.actions.plain", counts("plain").toDouble, "count"),
      ("core.actions.capture", counts("capture").toDouble, "count"),
      ("core.actions.use", counts("use").toDouble, "count"),
      ("core.actions.fallback", counts("fallback").toDouble, "count"),
      ("core.sketch_hit_ratio", ratio(counts("use"), total), "frac"),
      ("core.capture_ms", mean(execOf("capture").map(_.ms)), "ms"),
      ("core.capture_jobs", execOf("capture").size / nPass, "count"),
      ("core.revalidate_ms", mean(execOf("revalidate").map(_.ms)), "ms"),
      ("core.revalidate_jobs", execOf("revalidate").size / nPass, "count"),
      ("storage.scan_with_sketch_ms", mean(spansNamed("storage.scan_with_sketch").map(_.ms)), "ms"),
      ("storage.scan_with_sketch_calls", spansNamed("storage.scan_with_sketch").size / nPass, "count"),
      ("storage.files_read", ratio(mainOf(traced).flatMap(_.scans).map(_.files).sum, nq), "count"),
      ("storage.files_read_frac", fileFrac(traced, _.files, _.tableFiles), "frac"),
      ("storage.files_read_frac_sketch_use", fileFrac(traced.filter(_.action == "use"), _.files, _.tableFiles), "frac"),
      ("storage.bytes_read_frac", fileFrac(traced, _.bytes, _.tableBytes), "frac"),
      ("storage.rows_scanned_per_result_row",
        ratio(mainOf(traced).flatMap(_.scans).map(_.rows).sum, traced.map(_.rows).sum), "ratio"),
      ("storage.scan_ms", ratio(mainOf(traced).flatMap(_.scans).map(_.scanMs).sum, nq), "ms"),
      ("spark.plan_ms", ratio(execs.map(_.planMs).sum, nq), "ms"),
      ("spark.exec_ms", ratio(execs.map(_.execMs).sum, nq), "ms"),
      ("spark.jobs_per_query", ratio(traced.flatMap(_.window).map(_.jobs).sum, nq), "count"),
      ("spark.tasks_per_query", ratio(traced.flatMap(_.window).map(_.tasks).sum, nq), "count"),
      ("spark.shuffle_mb", ratio(traced.flatMap(_.window).map(_.shuffleBytes).sum / 1048576.0, nq), "MB"),
      ("bench.self_ms", ratio(layerSelf.getOrElse("bench", 0.0), nq), "ms"),
      ("core.self_ms", ratio(layerSelf.getOrElse("core", 0.0), nq), "ms"),
      ("storage.self_ms", ratio(layerSelf.getOrElse("storage", 0.0), nq), "ms"),
      ("smt.self_ms", ratio(layerSelf.getOrElse("smt", 0.0), nq), "ms"),
      ("spark.self_ms", ratio(layerSelf.getOrElse("spark", 0.0), nq), "ms"),
      ("workloads.datagen_s", st("workloads.datagen_s"), "s"),
      ("storage.zonemap_write_s", st("storage.zonemap_write_s"), "s"),
      ("stats.equidepth_s", st("stats.equidepth_s"), "s"),
      ("core.setup_capture_s", st("core.setup_capture_s"), "s"),
      ("bench.reference_s", st("bench.reference_s"), "s"),
      ("bench.warmup_s", st("bench.warmup_s"), "s"),
      ("bench.trace_overhead_frac", median(overhead), "frac"),
      ("bench.trace_overhead_iqr", quantile(overhead, 0.75) - quantile(overhead, 0.25), "frac"))
  }
}
