package perfbench

import repro.core.CollectedGraph

object Stats {

  /** Nearest-rank percentile (q in (0, 1]) of unsorted samples. */
  def percentile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "no samples")
    val s = xs.sorted
    s(math.max(0, math.ceil(q * s.size).toInt - 1))
  }

  def median(xs: Seq[Double]): Double = percentile(xs, 0.5)

  /** Order-sensitive 64-bit hash (FNV-1a over 64-bit words) of every array
    * of a collected graph: two runs built the same input iff it matches.
    */
  def checksum(g: CollectedGraph): Long = {
    var h = 0xcbf29ce484222325L
    def mix(x: Long): Unit = h = (h ^ x) * 0x100000001b3L
    g.vertexCounts.foreach(n => mix(n.toLong))
    (g.vertexProps.iterator ++ g.edgeProps.iterator).foreach(_.foreach {
      case a: Array[Long]   => a.foreach(mix)
      case a: Array[String] => a.foreach(s => mix(if (s == null) 0L else s.hashCode.toLong))
      case other            => sys.error(s"unexpected column type ${other.getClass}")
    })
    (g.edgeSrc.iterator ++ g.edgeDst.iterator).foreach(_.foreach(x => mix(x.toLong)))
    h
  }

  /** The result line: one JSON object, metric values with all their digits. */
  def resultJson(correct: Boolean, attempted: Long, failed: Long, metrics: Seq[(String, Double, String)]): String = {
    val ms = metrics.map { case (name, value, unit) =>
      require(!value.isNaN && !value.isInfinite, s"$name is not a number: $value")
      s""""$name": {"value": $value, "unit": "$unit"}"""
    }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}
