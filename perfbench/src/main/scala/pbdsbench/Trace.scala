package pbdsbench

import java.io.{File, PrintWriter}
import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicLong

import scala.collection.mutable

import org.apache.spark.scheduler.{SparkListener, SparkListenerEvent, SparkListenerJobStart,
  SparkListenerTaskEnd}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.execution.{FileSourceScanExec, QueryExecution, SparkPlan}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.ui.{SparkListenerSQLExecutionEnd, SparkListenerSQLExecutionStart}
import org.apache.spark.sql.util.QueryExecutionListener
import repro.core.CapturedSketch
import repro.storage.TableStore

/** A timed interval at a layer boundary. The layer is the name's prefix
  * before the first dot; spans of one query share `query`.
  */
final case class Span(id: Int, name: String, start: Long, end: Long, query: Long) {
  def layer: String = name.takeWhile(_ != '.')
  def ms: Double = (end - start) / 1e6
}

/** In-memory span recorder. Spans are kept until the run ends, then written
  * out; nothing is recorded while `enabled` is false.
  */
final class Tracer {
  @volatile var enabled = false
  var query: Long = -1L
  private val spans = mutable.ArrayBuffer.empty[Span]

  def add(name: String, start: Long, end: Long): Span = {
    val s = Span(spans.size, name, start, end, query)
    spans += s
    s
  }

  def span[T](name: String)(f: => T): T =
    if (!enabled) f
    else {
      val t0 = System.nanoTime()
      try f finally add(name, t0, System.nanoTime())
    }

  def all: Seq[Span] = spans.toSeq

  /** Parent of each span: the shortest span of the same query whose interval
    * holds the child's midpoint (listener spans carry millisecond stamps).
    */
  def parents: Map[Int, Int] = spans.groupBy(_.query).values.flatMap { qs =>
    qs.map { c =>
      val mid = (c.start + c.end) / 2
      c.id -> qs.filter(p => p.id != c.id && p.start <= mid && mid <= p.end &&
          (p.end - p.start > c.end - c.start || (p.end - p.start == c.end - c.start && p.id < c.id)))
        .sortBy(p => p.end - p.start).headOption.map(_.id).getOrElse(-1)
    }
  }.toMap

  /** Self time: a span's duration minus the part its children cover. */
  def selfNs: Map[Int, Long] = {
    val par = parents
    val kids = par.toSeq.filter(_._2 >= 0).groupBy(_._2).map { case (p, cs) => p -> cs.map(_._1) }
    spans.map { s =>
      val iv = kids.getOrElse(s.id, Nil).map(spans(_))
        .map(c => (math.max(c.start, s.start), math.min(c.end, s.end)))
        .filter { case (a, b) => b > a }.sortBy(_._1)
      var covered = 0L; var cur = Long.MinValue
      for ((a, b) <- iv) {
        val from = math.max(a, cur)
        if (b > from) { covered += b - from; cur = b }
      }
      s.id -> (s.end - s.start - covered)
    }.toMap
  }

  def write(f: File): Unit = {
    f.getParentFile.mkdirs()
    val par = parents
    val self = selfNs
    val w = new PrintWriter(f, "UTF-8")
    try spans.foreach { s =>
      w.println(s"""{"id":${s.id},"name":"${s.name}","query":${s.query},"parent":${par(s.id)},""" +
        s""""start_ns":${s.start},"end_ns":${s.end},"self_ns":${self(s.id)}}""")
    } finally w.close()
  }
}

/** A `TableStore` that delegates to the real store and times every
  * sketch-restricted scan it hands to the manager.
  */
final class TracingStore(inner: TableStore, tracer: Tracer) extends TableStore {
  def tableNames: Seq[String] = inner.tableNames
  def scan(spark: SparkSession, table: String): DataFrame = inner.scan(spark, table)
  override def catalog(spark: SparkSession): Map[String, DataFrame] = inner.catalog(spark)
  def scanWithSketch(spark: SparkSession, table: String, sketch: CapturedSketch): DataFrame =
    tracer.span("storage.scan_with_sketch")(inner.scanWithSketch(spark, table, sketch))
}

/** What a scan node reports: files and bytes read, rows out, scan time. */
final case class ScanStats(files: Long, bytes: Long, rows: Long, scanMs: Long,
                           tableFiles: Long, tableBytes: Long)

/** One Spark SQL execution, classified by what started it. Phases are the
  * Catalyst analysis, optimization and planning intervals.
  */
final case class Execution(kind: String, startNs: Long, endNs: Long,
                           planMs: Long, phases: Seq[(String, Long, Long)], scans: Seq[ScanStats]) {
  def ms: Double = (endNs - startNs) / 1e6
  /** Wall time outside the planning phases that fall inside the execution. */
  def execMs: Double =
    ms - phases.map { case (_, a, b) => math.max(0L, math.min(b, endNs) - math.max(a, startNs)) }.sum / 1e6
}

/** Spark work between two drains of the listener bus. */
final case class Window(execs: Seq[Execution], jobs: Long, tasks: Long, shuffleBytes: Long)

/** Outside-in Spark instrumentation through the public listener APIs.
  *
  * A `QueryExecutionListener` yields each execution's plans, metrics and
  * duration; the root `SparkListenerSQLExecutionEnd` events, which reach the
  * bus in the same order, give their wall-clock ends (millisecond stamps).
  * Jobs, tasks and shuffle bytes come from the scheduler events.
  * `drain()` runs a tiny marked query and waits until the listener sees it:
  * the bus delivers in order, so everything before it has arrived.
  */
final class SparkRecorder(spark: SparkSession, files: Seq[TableFiles])
    extends SparkListener with QueryExecutionListener {

  private val SentinelProp = "pbds.bench.sentinel"
  private val sentinelSeen = new AtomicLong(0)
  private var sentinels = 0L
  // QueryExecutionListener callbacks and root SQL execution ends, each in
  // bus order: the i-th callback belongs to the i-th end.
  private val qes = new ConcurrentLinkedQueue[(String, QueryExecution, Long)]()
  private val ends = new ConcurrentLinkedQueue[java.lang.Long]() // end epoch ms
  private val starts = new java.util.concurrent.ConcurrentHashMap[Long, java.lang.Boolean]() // id → sentinel
  private val sentinelStages = java.util.concurrent.ConcurrentHashMap.newKeySet[Int]()
  /** Executions whose end time could not be paired (placed at drain time). */
  var unpaired = 0L
  private val jobs = new AtomicLong(0)
  private val tasks = new AtomicLong(0)
  private val shuffle = new AtomicLong(0)
  // epoch ms → System.nanoTime scale
  private val clockOffsetNs = System.currentTimeMillis() * 1000000L - System.nanoTime()

  def toNano(epochMs: Long): Long = epochMs * 1000000L - clockOffsetNs

  def register(): Unit = {
    spark.sparkContext.addSparkListener(this)
    spark.listenerManager.register(this)
  }
  def unregister(): Unit = {
    spark.listenerManager.unregister(this)
    spark.sparkContext.removeSparkListener(this)
  }

  private def marker(n: Long) = s"pbds_bench_drain_$n"

  override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit =
    qe.analyzed.output.map(_.name).find(_.startsWith("pbds_bench_drain_")) match {
      case Some(m) => sentinelSeen.set(m.stripPrefix("pbds_bench_drain_").toLong)
      case None    => qes.add((funcName, qe, durationNs))
    }
  override def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit =
    qes.add((s"$funcName(failed)", qe, 0L))

  override def onOtherEvent(event: SparkListenerEvent): Unit = event match {
    case e: SparkListenerSQLExecutionStart if e.rootExecutionId.forall(_ == e.executionId) =>
      starts.put(e.executionId, e.physicalPlanDescription.contains("pbds_bench_drain_"))
    case e: SparkListenerSQLExecutionEnd =>
      val sentinel = starts.remove(e.executionId)
      if (sentinel != null && !sentinel) ends.add(java.lang.Long.valueOf(e.time))
    case _ =>
  }
  override def onJobStart(js: SparkListenerJobStart): Unit =
    if (js.properties != null && js.properties.getProperty(SentinelProp) != null)
      js.stageIds.foreach(sentinelStages.add)
    else jobs.incrementAndGet()
  override def onTaskEnd(te: SparkListenerTaskEnd): Unit =
    if (!sentinelStages.contains(te.stageId)) {
      tasks.incrementAndGet()
      if (te.taskMetrics != null) shuffle.addAndGet(te.taskMetrics.shuffleWriteMetrics.bytesWritten)
    }

  def drain(): Window = {
    sentinels += 1
    val sc = spark.sparkContext
    sc.setLocalProperty(SentinelProp, "1")
    try spark.range(0, 1, 1, 1).selectExpr(s"id AS ${marker(sentinels)}").collect()
    finally sc.setLocalProperty(SentinelProp, null)
    val deadline = System.nanoTime() + 30L * 1000000000L
    while (sentinelSeen.get() < sentinels) {
      if (System.nanoTime() > deadline) sys.error("listener bus did not drain within 30 s")
      Thread.sleep(0, 200000)
    }
    val qs = Iterator.continually(qes.poll()).takeWhile(_ != null).toList
    val es = Iterator.continually(ends.poll()).takeWhile(_ != null).toList
    if (qs.size != es.size) unpaired += qs.size
    val execs = qs.zipWithIndex.map { case ((fn, qe, dur), i) =>
      val endNs = if (qs.size == es.size) toNano(es(i).longValue) else System.nanoTime()
      classify(fn, qe, endNs - dur, endNs)
    }
    Window(execs, jobs.getAndSet(0), tasks.getAndSet(0), shuffle.getAndSet(0))
  }

  private object Plans extends AdaptiveSparkPlanHelper

  private def metric(p: SparkPlan, key: String): Long = p.metrics.get(key).map(_.value).getOrElse(0L)

  private def tableOf(paths: Seq[String]): Option[TableFiles] =
    paths.headOption.flatMap(p => files.find(f => p.startsWith(f.dir)))

  private def scansOf(plan: SparkPlan): Seq[ScanStats] = Plans.collect(plan) {
    case s: FileSourceScanExec =>
      val roots = s.relation.location.rootPaths.map(_.toUri.getPath)
      val t = tableOf(roots)
      ScanStats(metric(s, "numFiles"), metric(s, "filesSize"), metric(s, "numOutputRows"),
        metric(s, "scanTime"), t.map(_.files.toLong).getOrElse(0L), t.map(_.bytes).getOrElse(0L))
  }

  private def classify(fn: String, qe: QueryExecution, startNs: Long, endNs: Long): Execution = {
    val capture = qe.analyzed.output.exists(_.name.startsWith("_ps_"))
    val kind =
      if (capture) "capture"
      else if (fn == "collect") "main"
      else if (fn == "count") "revalidate"
      else "other"
    val ph = qe.tracker.phases.toSeq.map { case (n, s) => (n, toNano(s.startTimeMs), toNano(s.endTimeMs)) }
    val planMs = qe.tracker.phases.values.map(_.durationMs).sum
    val scans = try scansOf(qe.executedPlan) catch { case _: Exception => Nil }
    Execution(kind, startNs, endNs, planMs, ph, scans)
  }
}
