package repro.bench

import scala.util.Random

import repro.{Fixtures, SparkSpec}
import repro.algebra._
import repro.core.{BitSketch, Capture, CapturedSketch, RangePartition}
import repro.storage.MemTableStore

/** The measurement policy of the bench drivers: the Fig. 14 interval
  * computation and the answer gate.
  */
class BenchUtilSpec extends SparkSpec {
  import BenchUtil._
  import Fixtures._

  /** Winner at every n in [1, maxN], ties to the earlier option. */
  private def bruteForce(cNoPs: Double, options: Seq[(String, Double, Double)],
                         maxN: Int): Seq[(String, Int, Option[Int])] = {
    val all = ("No-PS", 0.0, cNoPs) +: options
    val winners = (1 to maxN).map(n => all.minBy { case (_, cap, use) => cap + use * n }._1)
    val starts = (1 to maxN).filter(n => n == 1 || winners(n - 1) != winners(n - 2))
    starts.zip(starts.tail.map(Option(_)) :+ None).map { case (s, e) => (winners(s - 1), s, e) }
  }

  test("T8 keeps an option that is cheapest only on a short interval") {
    assert(optimalIntervals(1.0, Seq(("Y", 100.0, 0.5), ("Z", 155.0, 0.25))) ==
      Seq(("No-PS", 1, Some(201)), ("Y", 201, Some(221)), ("Z", 221, None)))
  }

  test("T8 with one option: No-PS until the capture amortizes") {
    assert(optimalIntervals(1.0, Seq(("PS64", 3.0, 0.5))) ==
      Seq(("No-PS", 1, Some(7)), ("PS64", 7, None)))
  }

  test("T8 intervals equal the winner at every n up to 3000") {
    val rnd = new Random(20210914L)
    for (i <- 1 to 400) {
      val cNoPs = 1.0 + rnd.nextInt(4)
      // half on a binary grid (exact ties), half continuous
      def v(max: Double): Double =
        if (i % 2 == 0) rnd.nextInt(17) * max / 16 else rnd.nextDouble() * max
      val options = (1 to 1 + rnd.nextInt(4)).map(k => (s"PS$k", v(400.0), v(cNoPs)))
      assert(optimalIntervals(cNoPs, options, maxN = 3000) == bruteForce(cNoPs, options, 3000),
        s"cNoPs=$cNoPs options=$options")
    }
  }

  private lazy val citiesStore = new MemTableStore(Map("cities" -> sparkDf(spark, citiesSchema, citiesRows)))
  private val fState = RangePartition("cities", "state", TString, stateBounds.toIndexedSeq)

  test("answer gate passes a captured sketch and rejects an empty one") {
    val catalog = citiesStore.catalog(spark)
    val expected = answer(q1, catalog)
    assert(expected.size == 2)
    val captured = Capture.capture(q1, Seq(fState), catalog)
    requireAnswer(q1, citiesStore.sketchCatalog(spark, captured), expected, "Q1")
    val empty = Map("cities" -> CapturedSketch(fState, BitSketch.empty(fState.nFragments)))
    intercept[IllegalArgumentException] {
      requireAnswer(q1, citiesStore.sketchCatalog(spark, empty), expected, "Q1")
    }
  }
}
