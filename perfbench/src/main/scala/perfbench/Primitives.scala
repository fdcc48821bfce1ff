package perfbench

import repro.compress.NullCompressedColumn
import repro.core.{CollectedGraph, GraphStore}
import repro.storage.{CsrAdjacency, PropertyPages, VColumn}
import repro.util.ByteWidthArray

/** Storage-primitive loops of the traced run, in ns per call. Each loop
  * reads structures built from the workload's own data: the GF-CL store's
  * CSR lists and property pages, the GF-RV store's row records, and
  * columns made from the workload's arrays by the library's own builders.
  */
object Primitives {

  @volatile private var sink = 0L
  private val CallsPerSample = 4000000L
  private val Samples = 5
  private val RandomReads = 1 << 20

  /** Median over `Samples` samples of ns per call; a sample repeats `pass`
    * (which makes `callsPerPass` calls) until it has made about
    * `CallsPerSample` calls.
    */
  private def nsPerCall(callsPerPass: Long)(pass: => Long): Double = {
    val passes = math.max(1L, CallsPerSample / math.max(1L, callsPerPass))
    Stats.median((1 to Samples).map { _ =>
      val t0 = System.nanoTime()
      var s = 0L
      var i = 0L
      while (i < passes) { s += pass; i += 1 }
      val t = System.nanoTime() - t0
      sink ^= s
      t.toDouble / (passes * callsPerPass)
    })
  }

  private def csr(store: GraphStore, e: Int, forward: Boolean): CsrAdjacency =
    store.adjacency(e, forward) match {
      case c: CsrAdjacency => c
      case other => sys.error(s"edge label $e is not stored as CSR (${other.getClass.getSimpleName})")
    }

  private def randomPositions(n: Int, rnd: java.util.Random): Array[Int] =
    Array.fill(RandomReads)(rnd.nextInt(n))

  def measure(spec: PrimitiveSpec, g: CollectedGraph, gfcl: GraphStore, gfrv: GraphStore): Seq[(String, Double)] = {
    val schema = g.schema
    val e = schema.edgeIdx(spec.edgeLabel)
    val fwd = csr(gfcl, e, forward = true)
    val bwd = csr(gfcl, e, forward = false)
    val pages = gfcl.edgeProps(e) match {
      case p: PropertyPages => p
      case other => sys.error(s"${spec.edgeLabel} has no property pages (${other.getClass.getSimpleName})")
    }
    val rnd = new java.util.Random(0x5eed)

    // The same neighbour offsets at each byte width, masked to fit.
    val nbrs = Array.tabulate(fwd.numEdges)(fwd.nbr)
    val arrays = Seq(1 -> 0xffL, 2 -> 0xffffL, 4 -> 0xffffffffL, 8 -> -1L).map { case (w, mask) =>
      w -> ByteWidthArray.at(nbrs.map(_ & mask), w)
    }
    def sumAll(a: ByteWidthArray): Long = {
      var s = 0L
      var i = 0
      while (i < a.length) { s += a.get(i); i += 1 }
      s
    }
    // The engines read all four widths through one call site; let this one
    // see all four before timing any, as theirs have.
    arrays.foreach { case (_, a) => sink ^= sumAll(a) }
    val widths = arrays.map { case (w, a) => s"util.bwa_get_ns.w$w" -> nsPerCall(a.length)(sumAll(a)) }

    val csrScan = "storage.csr_scan_ns" -> nsPerCall(fwd.numEdges) {
      var s = 0L
      var v = 0
      while (v < fwd.numVertices) {
        var i = fwd.start(v)
        if (i >= 0) {
          val end = fwd.end(v)
          while (i < end) { s += fwd.nbr(i); i += 1 }
        }
        v += 1
      }
      s
    }

    def pageReads(adj: CsrAdjacency, forward: Boolean): Long = {
      var s = 0L
      var v = 0
      while (v < adj.numVertices) {
        var i = adj.start(v)
        if (i >= 0) {
          val end = adj.end(v)
          while (i < end) {
            s += pages.getLong(pages.handle(v, adj.nbr(i), adj.edgeVal(i), forward), 0)
            i += 1
          }
        }
        v += 1
      }
      s
    }
    val pagesFwd = "storage.pages_fwd_ns" -> nsPerCall(fwd.numEdges)(pageReads(fwd, forward = true))
    val pagesBwd = "storage.pages_bwd_ns" -> nsPerCall(bwd.numEdges)(pageReads(bwd, forward = false))

    // Random reads of one NULL-bearing column, Jacobson-compressed and plain.
    val dense = spec.nullColumn(g)
    val jac = NullCompressedColumn(dense)
    val plain = VColumn(dense, suppress = true, nullCompress = false)
    val colPos = randomPositions(dense.length, rnd)
    val jacobson = "compress.jacobson_get_ns" -> nsPerCall(colPos.length) {
      var s = 0L
      var i = 0
      while (i < colPos.length) { s += jac.get(colPos(i)); i += 1 }
      s
    }
    val vcol = "storage.vcol_get_ns" -> nsPerCall(colPos.length) {
      var s = 0L
      var i = 0
      while (i < colPos.length) { s += plain.get(colPos(i)); i += 1 }
      s
    }

    val rowLabel = schema.vertexIdx(spec.rowLabel)
    val rowProp = schema.vertex(spec.rowLabel).propIdx(spec.rowProp)
    val rowPos = randomPositions(g.vertexCounts(rowLabel), rnd)
    val rowstore = "storage.rowstore_read_ns" -> nsPerCall(rowPos.length) {
      var s = 0L
      var i = 0
      while (i < rowPos.length) { s += gfrv.vertexLong(rowLabel, rowPos(i), rowProp); i += 1 }
      s
    }

    widths ++ Seq(csrScan, pagesFwd, pagesBwd, jacobson, vcol, rowstore)
  }
}
