package perfbench

import repro.core.{CollectedGraph, Values}

/** Expected counts for the k-hop workload, computed from the collected edge
  * arrays in plain Scala: no storage structure, no plan, no engine code.
  */
object Walks {

  private def arrays(g: CollectedGraph, label: String, prop: String): (Array[Int], Array[Int], Array[Long], Int) = {
    val e = g.schema.edgeIdx(label)
    require(g.schema.srcLabelOf(e) == g.schema.dstLabelOf(e), s"$label must join one vertex label to itself")
    val p = g.edgeProps(e)(g.schema.edges(e).propIdx(prop)).asInstanceOf[Array[Long]]
    (g.edgeSrc(e), g.edgeDst(e), p, g.vertexCounts(g.schema.srcLabelOf(e)))
  }

  /** in(v): walks of `steps` edges that end at v (degree DP). */
  private def walksEndingAt(src: Array[Int], dst: Array[Int], n: Int, steps: Int): Array[Long] = {
    var w = Array.fill(n)(1L)
    for (_ <- 1 to steps) {
      val next = new Array[Long](n)
      var i = 0
      while (i < src.length) { next(dst(i)) += w(src(i)); i += 1 }
      w = next
    }
    w
  }

  /** Walks of `hops` edges; with `filter`, only those whose last edge has
    * `prop > filter` (NULL fails), as in `MicroQueries.khop`'s forward plan.
    */
  def khop(g: CollectedGraph, label: String, prop: String, hops: Int, filter: Option[Long]): Long = {
    val (src, dst, p, n) = arrays(g, label, prop)
    val in = walksEndingAt(src, dst, n, hops - 1)
    var total = 0L
    var i = 0
    while (i < src.length) {
      if (filter.forall(c => p(i) != Values.Null && p(i) > c)) total += in(src(i))
      i += 1
    }
    total
  }

  /** Two-edge walks e0 = (a, m), e1 = (m, b) with `e1.prop > e0.prop`:
    * per middle vertex, sort both sides and count the pairs by merging.
    */
  def crossTwoHop(g: CollectedGraph, label: String, prop: String): Long = {
    val (src, dst, p, n) = arrays(g, label, prop)
    def byVertex(key: Array[Int]): Array[Array[Long]] = {
      val buf = Array.fill(n)(scala.collection.mutable.ArrayBuilder.make[Long])
      var i = 0
      while (i < key.length) { if (p(i) != Values.Null) buf(key(i)) += p(i); i += 1 }
      buf.map { b => val a = b.result(); java.util.Arrays.sort(a); a }
    }
    val ins = byVertex(dst)
    val outs = byVertex(src)
    var total = 0L
    var m = 0
    while (m < n) {
      val a = ins(m)
      var j = 0
      outs(m).foreach { b =>
        while (j < a.length && a(j) < b) j += 1
        total += j
      }
      m += 1
    }
    total
  }
}

/** The correctness rule of one (query, parameters) in one round. */
object Check {

  /** For each system's result (None when it threw), whether that operation
    * failed: it threw, the systems that returned disagree, or its count
    * differs from the independently computed one.
    */
  def failed(expected: Long, results: Seq[Option[Long]]): Seq[Boolean] = {
    val agree = results.flatten.distinct.size <= 1
    results.map(r => !agree || !r.contains(expected))
  }
}
