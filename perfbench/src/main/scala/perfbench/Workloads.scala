package perfbench

import org.apache.spark.sql.SparkSession
import repro.core.{CollectedGraph, GraphData, Values}
import repro.datasets.{GenUtil, ImdbLite, JobQueries, LdbcLite, LdbcQueries, SocialGraph}
import repro.exp.MicroQueries
import repro.query.{CmpConst, EQ, Query, VProp}

/** One (query, parameters) pair the loop runs. `independent` computes the
  * expected count in plain Scala from the collected arrays; when it is None
  * the expected count comes from DuckDB over the same tables.
  */
final case class Instance(query: Query, independent: Option[CollectedGraph => Long])

/** One generated graph of a workload and the operations that run on it.
  * `instances` draws the parameters from the run's random source.
  */
final case class DatasetSpec(
    name: String,
    generate: (SparkSession, Long) => GraphData,
    instances: (CollectedGraph, java.util.Random) => Seq[Instance])

/** Where the traced run's storage-primitive loops read: the forward and
  * backward lists (and property pages) of `edgeLabel`, the row-store
  * records of `rowLabel.rowProp` on GF-RV, and a NULL-bearing column for
  * the Jacobson-against-plain comparison.
  */
final case class PrimitiveSpec(
    dataset: Int,
    edgeLabel: String,
    rowLabel: String,
    rowProp: String,
    nullColumn: CollectedGraph => Array[Long])

/** `warmupRounds`: untimed rounds before the loop, at least a second of work,
  * so that the JIT has compiled the engines' hot paths.
  */
final case class Workload(name: String, warmupRounds: Int, datasets: Seq[DatasetSpec], primitives: PrimitiveSpec)

object Workloads {

  // Scales: every run sets its stores up three times and still has to
  // finish well inside the run budget, so the graphs are small. The
  // README records their make-up.
  val LdbcPersons = 8000L
  val ImdbTitles = 8000L
  val FlickrNodes = 1000L
  val WikiNodes = 150L

  /** Person anchors per run, one from each stratum of `knows` out-degree,
    * so every run covers low- and high-degree persons alike.
    */
  val LdbcAnchors = 8

  /** Table 5's FILTER constant: `since` is uniform in [1.0e9, 1.4e9). */
  val SinceCut = 1_200_000_000L

  private def edgeIdx(g: CollectedGraph, label: String): Int = g.schema.edgeIdx(label)

  /** Rewrite a query's person / comment `id = c` anchors. */
  def withAnchors(q: Query, person: Int, comment: Int): Query = {
    val preds = q.preds.map {
      case CmpConst(VProp(v, "id"), EQ, _) if q.varByName(v).label == "person" =>
        CmpConst(VProp(v, "id"), EQ, LdbcLite.personId(person))
      case CmpConst(VProp(v, "id"), EQ, _) if q.varByName(v).label == "comment" =>
        CmpConst(VProp(v, "id"), EQ, LdbcLite.commentId(comment))
      case p => p
    }
    q.copy(name = s"${q.name}[p=$person,c=$comment]", preds = preds)
  }

  /** One person per stratum of `knows` out-degree (persons sorted by degree,
    * then offset), uniform inside the stratum; comments uniform.
    */
  def ldbcInstances(g: CollectedGraph, rnd: java.util.Random): Seq[Instance] = {
    val nP = g.vertexCounts(g.schema.vertexIdx("person"))
    val nC = g.vertexCounts(g.schema.vertexIdx("comment"))
    val deg = new Array[Int](nP)
    g.edgeSrc(edgeIdx(g, "knows")).foreach(s => deg(s) += 1)
    val byDeg = (0 until nP).sortBy(p => (deg(p), p))
    val anchors = (0 until LdbcAnchors).map { j =>
      val lo = j * nP / LdbcAnchors
      val hi = (j + 1) * nP / LdbcAnchors
      (byDeg(lo + rnd.nextInt(hi - lo)), rnd.nextInt(nC))
    }
    val base = LdbcQueries.all(nP.toLong)
    for ((p, c) <- anchors; q <- base) yield Instance(withAnchors(q, p, c), None)
  }

  val ldbc: Workload = Workload("ldbc-interactive", warmupRounds = 10,
    Seq(DatasetSpec("LDBC", (s, seed) => LdbcLite(s, LdbcPersons, seed), ldbcInstances)),
    PrimitiveSpec(0, "knows", "person", "creationDate",
      g => singleColumn(g, "replyOfComment")))

  val job: Workload = Workload("job-star", warmupRounds = 10,
    Seq(DatasetSpec("IMDB", (s, seed) => ImdbLite(s, ImdbTitles, seed),
      (_, _) => JobQueries.all.map(Instance(_, None)))),
    PrimitiveSpec(0, "cast_info", "title", "episode_nr",
      g => g.edgeProps(edgeIdx(g, "cast_info"))(g.schema.edge("cast_info").propIdx("nr_order"))
        .asInstanceOf[Array[Long]]))

  /** Table 5's forward k-hop COUNT(*) and FILTER plus Table 3's two-hop
    * cross-edge predicate, forward and backward, each with its walk count.
    */
  def socialInstances(ds: String)(g: CollectedGraph, rnd: java.util.Random): Seq[Instance] = {
    def named(q: Query) = q.copy(name = s"$ds/${q.name}")
    val khop = for (hops <- 1 to 3; filter <- Seq(None, Some(SinceCut))) yield Instance(
      named(MicroQueries.khop("link", "node", hops, forward = true, filter)),
      Some(Walks.khop(_, "link", "since", hops, filter)))
    val cross = Seq(true, false).map(fwd => Instance(
      named(MicroQueries.twoHopCrossPred("link", "node", "since", forward = fwd)),
      Some(Walks.crossTwoHop(_, "link", "since"))))
    khop ++ cross
  }

  /** A social graph whose topology comes from the generator's own fixed
    * seed and whose `since` values come from the run's seed. Whole-graph
    * walk counts on graphs this small swing by a quarter from one topology
    * seed to the next, and every latency with them.
    */
  def socialGraph(topology: SparkSession => GraphData)(spark: SparkSession, seed: Long): GraphData = {
    val g = topology(spark)
    g.copy(edges = g.edges.map { case (label, df) =>
      label -> df.withColumn("since", GenUtil.longCol(1_000_000_000L, 1_400_000_000L, seed + 31))
    })
  }

  val khop: Workload = Workload("khop-social", warmupRounds = 2,
    Seq(
      DatasetSpec("FLICKR", socialGraph(SocialGraph.flickrLite(_, FlickrNodes)), socialInstances("FLICKR")),
      DatasetSpec("WIKI", socialGraph(SocialGraph.wikiLite(_, WikiNodes)), socialInstances("WIKI"))),
    PrimitiveSpec(1, "link", "node", "id", g => singleColumn(g, "link")))

  val all: Seq[Workload] = Seq(ldbc, khop, job)

  /** Per source vertex of `label`, its first forward neighbour in edge-row
    * order, NULL when its list is empty: the vertex column a
    * single-cardinality edge is stored as.
    */
  def singleColumn(g: CollectedGraph, label: String): Array[Long] = {
    val e = edgeIdx(g, label)
    val out = Array.fill[Long](g.vertexCounts(g.schema.srcLabelOf(e)))(Values.Null)
    val src = g.edgeSrc(e)
    val dst = g.edgeDst(e)
    var i = src.length - 1
    while (i >= 0) { out(src(i)) = dst(i).toLong; i -= 1 }
    out
  }
}
