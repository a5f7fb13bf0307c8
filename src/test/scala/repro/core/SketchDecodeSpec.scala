package repro.core

import java.nio.file.Files
import java.sql.Date
import java.time.LocalDate

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.expressions.ScalaUDF
import org.apache.spark.sql.catalyst.plans.logical.Filter
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import repro.{Fixtures, SparkSpec}
import repro.algebra._
import repro.storage.{MemTableStore, ZoneMapStore, ZoneMapTableStore}

/** The single sketch decoder (Eq. 2, Sec. 8.1) as a property: for random
  * sorted bounds and random fragment sets, every way of applying a sketch
  * selects exactly the rows whose `fragmentOf` is in the set — Lineage over
  * `Select(toPred)`, a Spark filter with `ToSpark.pred(toPred)`, the
  * membership lookup, and the sketch scans of both `TableStore`s.
  */
class SketchDecodeSpec extends SparkSpec {

  private val big = 1L << 53
  // Longs straddling 2^53, where neighbours collapse when compared as doubles.
  private val longs: Gen[Any] =
    Gen.oneOf(Gen.choose(-1000L, 1000L), Gen.choose(big - 64, big + 64))
  private val strings: Gen[Any] =
    Gen.choose(1, 3).flatMap(n => Gen.listOfN(n, Gen.oneOf('a', 'b', 'c', 'd')).map(_.mkString))
  private val dates: Gen[Any] =
    Gen.choose(0L, 400L).map(d => Date.valueOf(LocalDate.of(2020, 1, 1).plusDays(d)))

  private val seed = 20210401L

  /** A fixed 300-row table `t(id, a)` with values from `values`, in every
    * form a sketch is applied to.
    */
  private final class Table(val tpe: SqlType, val values: Gen[Any]) {
    val schema: Seq[(String, SqlType)] = Seq("id" -> TLong, "a" -> tpe)
    val rows: Seq[Seq[Any]] = Gen.listOfN(300, values)
      .pureApply(Gen.Parameters.default, Seed(seed))
      .zipWithIndex.map { case (v, i) => Seq(i.toLong, v) }
    lazy val df: DataFrame = Fixtures.sparkDf(spark, schema, rows).cache()
    lazy val mem = new MemTableStore(Map("t" -> df))
    lazy val disk = new ZoneMapTableStore(Map("t" ->
      ZoneMapStore.write(df, Files.createTempDirectory("decode").toString, "a", 4)))
    private val db: Lineage.Db = Map("t" -> Fixtures.lineageTable(schema, rows))

    /** Every decode of `s` selects the rows whose fragment `s` contains. */
    def check(s: CapturedSketch): Unit = {
      val expected = rows.collect {
        case Seq(id: Long, v) if s.bits.get(s.partition.fragmentOf(v)) => id
      }.toSet
      def ids(df: DataFrame): Set[Long] = df.select("id").collect().map(_.getLong(0)).toSet
      val lineage = Lineage.result(Select(s.toPred, TableRef("t", schema)), db)
        .map(_("id").asInstanceOf[Long]).toSet
      assert(lineage == expected, "Lineage over Select(toPred)")
      assert(ids(df.filter(ToSpark.pred(s.toPred))) == expected, "Spark filter with ToSpark.pred")
      assert(ids(df.filter(Use.membershipColumn(s))) == expected, "membership lookup")
      assert(ids(mem.scanWithSketch(spark, "t", s)) == expected, "MemTableStore")
      assert(ids(disk.scanWithSketch(spark, "t", s)) == expected, "ZoneMapTableStore")
    }
  }

  private def sketches(t: Table): Gen[CapturedSketch] = for {
    n     <- Gen.choose(1, 30)
    raw   <- Gen.listOfN(n, t.values)
    bounds = raw.distinct.sortWith(Lineage.compareAny(_, _) < 0).toIndexedSeq
    p      = RangePartition("t", "a", t.tpe, bounds)
    frags <- Gen.someOf(0 until p.nFragments)
  } yield CapturedSketch(p, BitSketch.fromFragments(p.nFragments, frags))

  private val longTable = new Table(TLong, longs)

  for ((name, t) <- Seq("TLong" -> longTable,
                        "TString" -> new Table(TString, strings),
                        "TDate" -> new Table(TDate, dates)))
    test(s"every decode selects the sketch's fragments ($name)") {
      val params = Test.Parameters.default
        .withMinSuccessfulTests(8).withWorkers(1).withInitialSeed(Seed(seed))
      val r = Test.check(params, Prop.forAllNoShrink(sketches(t)) { s => t.check(s); true })
      assert(r.passed, r.status)
    }

  test("a sketch with more than 512 ranges decodes by membership in both stores") {
    val p = RangePartition("t", "a", TLong, (-1100L to 1100L by 2L).toIndexedSeq)
    val s = CapturedSketch(p, BitSketch.fromFragments(p.nFragments, 0 until p.nFragments by 2))
    assert(p.mergedRanges(s.fragments).size > 512)
    for (st <- Seq(longTable.mem, longTable.disk)) {
      val conds = st.scanWithSketch(spark, "t", s).queryExecution.analyzed
        .collect { case f: Filter => f.condition }
      assert(conds.exists(_.exists(_.isInstanceOf[ScalaUDF])), st.getClass.getSimpleName)
    }
    longTable.check(s)
  }
}
