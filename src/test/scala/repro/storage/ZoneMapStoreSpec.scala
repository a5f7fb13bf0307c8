package repro.storage

import java.nio.file.Files

import repro.{Fixtures, SparkSpec, SynthData}
import repro.algebra._
import repro.core._

class ZoneMapStoreSpec extends SparkSpec {

  private def tmp(): String = Files.createTempDirectory("zms").toString

  test("write + load builds a sorted zone map covering all rows") {
    val df = Fixtures.sparkDf(spark, Fixtures.citiesSchema, Fixtures.citiesRows)
    val s = ZoneMapStore.write(df, tmp(), "popden", 3)
    assert(s.totalRows == 7)
    assert(s.nFiles >= 2 && s.nFiles <= 3)
    assert(s.zones.sliding(2).forall {
      case Seq(a, b) => Lineage.compareAny(a.min, b.min) <= 0
      case _         => true
    })
    assert(s.scanAll(spark).count() == 7)
  }

  test("prunedScan returns exactly the sketch-covered rows") {
    val df = Fixtures.sparkDf(spark, Fixtures.citiesSchema, Fixtures.citiesRows)
    val s = ZoneMapStore.write(df, tmp(), "popden", 3)
    val p = RangePartition("cities", "popden", TLong, Fixtures.popdenBounds.toIndexedSeq)
    val sk = CapturedSketch(p, BitSketch.fromFragments(2, Seq(1))) // g2 = (4000, ∞)
    val (pruned, filesRead) = s.prunedScan(spark, sk)
    assert(pruned.count() == 4) // popden 4200, 6000, 5000, 7000
    assert(filesRead <= s.nFiles)
  }

  test("empty sketch reads no files; full sketch reads all") {
    val df = Fixtures.sparkDf(spark, Fixtures.citiesSchema, Fixtures.citiesRows)
    val s = ZoneMapStore.write(df, tmp(), "popden", 2)
    val p = RangePartition("cities", "popden", TLong, Fixtures.popdenBounds.toIndexedSeq)
    val (e, ef) = s.prunedScan(spark, CapturedSketch(p, BitSketch.empty(2)))
    assert(e.count() == 0 && ef == 0)
    val (f, ff) = s.prunedScan(spark, CapturedSketch(p, BitSketch.full(2)))
    assert(f.count() == 7 && ff == s.nFiles)
  }

  test("file pruning actually skips files on a clustered table") {
    val df = SynthData.uniformKeys(spark, 20000, 1000000, seed = 9)
    val dir = tmp()
    val s = ZoneMapStore.write(df, dir, "k", 8)
    val p = RangePartition.equiDepth(s.scanAll(spark), "t", "k", TLong, 16)
    val sk = CapturedSketch(p, BitSketch.fromFragments(p.nFragments, Seq(0, 1)))
    val (pruned, filesRead) = s.prunedScan(spark, sk)
    assert(filesRead < s.nFiles, s"expected pruning: read $filesRead of ${s.nFiles}")
    val expected = s.scanAll(spark).filter(ToSpark.pred(sk.toPred)).count()
    assert(pruned.count() == expected)
  }

  test("mismatched sketch attribute is rejected") {
    val df = Fixtures.sparkDf(spark, Fixtures.citiesSchema, Fixtures.citiesRows)
    val s = ZoneMapStore.write(df, tmp(), "popden", 2)
    val p = RangePartition("cities", "state", TString, Fixtures.stateBounds.toIndexedSeq)
    intercept[IllegalArgumentException](
      s.prunedScan(spark, CapturedSketch(p, BitSketch.full(4))))
  }

  test("TableStore implementations agree on sketch-restricted contents") {
    val df = Fixtures.sparkDf(spark, Fixtures.citiesSchema, Fixtures.citiesRows)
    val zms = ZoneMapStore.write(df, tmp(), "popden", 3)
    val p = RangePartition("cities", "popden", TLong, Fixtures.popdenBounds.toIndexedSeq)
    val sk = CapturedSketch(p, BitSketch.fromFragments(2, Seq(1)))
    val mem  = new MemTableStore(Map("cities" -> df))
    val disk = new ZoneMapTableStore(Map("cities" -> zms))
    val expected = df.filter(ToSpark.pred(sk.toPred)).collect().map(_.getLong(0)).sorted.toSeq
    for (st <- Seq[TableStore](mem, disk)) {
      val got = st.scanWithSketch(spark, "cities", sk)
        .select("popden").collect().map(_.getLong(0)).sorted.toSeq
      assert(got == expected, s"store=${st.getClass.getSimpleName}")
    }
  }

  test("equal bits over different bounds are different pruned scans") {
    val df = Fixtures.sparkDf(spark, Fixtures.citiesSchema, Fixtures.citiesRows)
    val s = ZoneMapStore.write(df, tmp(), "popden", 3)
    def popdens(bound: Long): Set[Long] = {
      val p = RangePartition("cities", "popden", TLong, Vector(bound))
      s.prunedScan(spark, CapturedSketch(p, BitSketch.fromFragments(2, Seq(1))))._1
        .select("popden").collect().map(_.getLong(0)).toSet
    }
    assert(popdens(4000L) == Set(4200L, 6000L, 5000L, 7000L))
    assert(popdens(3000L) == Set(4200L, 6000L, 5000L, 7000L, 3700L))
  }
}
