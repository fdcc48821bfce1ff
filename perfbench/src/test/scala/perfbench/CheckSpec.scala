package perfbench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{CollectedGraph, GraphLoader, StorageConfig}
import repro.datasets.SocialGraph
import repro.engine.{Lbp, Volcano}
import repro.exp.MicroQueries

class CheckSpec extends AnyFunSuite {

  /** A small random multigraph in SocialGraph's schema (self-loops and
    * parallel edges included), built without Spark.
    */
  private def graph(n: Int, m: Int, seed: Long): CollectedGraph = {
    val rnd = new java.util.Random(seed)
    val src = Array.fill(m)(rnd.nextInt(n))
    val dst = Array.fill(m)(rnd.nextInt(n))
    val since = Array.fill(m)(1_000_000_000L + rnd.nextInt(400_000_000))
    new CollectedGraph(SocialGraph.schema, Array(n),
      Array(Array[AnyRef](Array.tabulate(n)(_.toLong))), Array(src), Array(dst), Array(Array[AnyRef](since)))
  }

  /** Walk counts by direct enumeration over the edge list. */
  private def enumerate(g: CollectedGraph, hops: Int, last: Long => Boolean): Long = {
    val src = g.edgeSrc(0); val dst = g.edgeDst(0)
    val since = g.edgeProps(0)(0).asInstanceOf[Array[Long]]
    def from(v: Int, left: Int): Long =
      if (left == 0) 1L
      else src.indices.filter(i => src(i) == v && (left > 1 || last(since(i)))).map(i => from(dst(i), left - 1)).sum
    (0 until g.vertexCounts(0)).map(v => from(v, hops)).sum
  }

  private val g = graph(n = 30, m = 120, seed = 3)

  test("k-hop walk counts match direct enumeration") {
    for (hops <- 1 to 3) {
      assert(Walks.khop(g, "link", "since", hops, None) == enumerate(g, hops, _ => true))
      assert(Walks.khop(g, "link", "since", hops, Some(Workloads.SinceCut)) ==
        enumerate(g, hops, _ > Workloads.SinceCut))
    }
  }

  test("cross-edge predicate count matches direct enumeration") {
    val src = g.edgeSrc(0); val dst = g.edgeDst(0)
    val since = g.edgeProps(0)(0).asInstanceOf[Array[Long]]
    val direct = (for (a <- src.indices; b <- src.indices if dst(a) == src(b) && since(b) > since(a)) yield 1L).sum
    assert(Walks.crossTwoHop(g, "link", "since") == direct)
  }

  test("the engines agree with the walk counts on every workload query") {
    val gfcl = GraphLoader.build(g, StorageConfig.GFCL)
    val gfrv = GraphLoader.build(g, StorageConfig.GFRV)
    Workloads.socialInstances("T")(g, new java.util.Random(1)).foreach { inst =>
      val expected = inst.independent.get(g)
      val got = Seq(Lbp.count(gfcl, inst.query), Volcano.count(gfcl, inst.query), Volcano.count(gfrv, inst.query))
      assert(!Check.failed(expected, got.map(Some(_))).exists(identity), s"${inst.query.name}: $expected vs $got")
    }
  }

  test("a perturbed count is flagged") {
    val expected = Walks.khop(g, "link", "since", 2, None)
    assert(Check.failed(expected, Seq(Some(expected), Some(expected), Some(expected))) == Seq(false, false, false))
    // One system off by one: the systems disagree, so all three fail.
    assert(Check.failed(expected, Seq(Some(expected), Some(expected + 1), Some(expected))) == Seq(true, true, true))
    // All systems agree on a count the independent check does not give.
    assert(Check.failed(expected + 1, Seq(Some(expected), Some(expected), Some(expected))) == Seq(true, true, true))
    // A system that threw fails alone.
    assert(Check.failed(expected, Seq(Some(expected), None, Some(expected))) == Seq(false, true, false))
  }

  test("LDBC anchors are rewritten on person and comment ids only") {
    val q = repro.datasets.LdbcQueries.all(1000).find(_.name == "IS02").get
    val r = Workloads.withAnchors(q, person = 5, comment = 9)
    assert(r.preds == Seq(repro.query.CmpConst(repro.query.VProp("p", "id"), repro.query.EQ,
      repro.datasets.LdbcLite.personId(5))))
    assert(r.name == "IS02[p=5,c=9]")
  }
}
