package perfbench

import java.lang.management.ManagementFactory
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.baseline.SqlBaseline
import repro.core.{CollectedGraph, GraphData, GraphLoader, GraphStore, StorageConfig}
import repro.engine.{Lbp, Volcano}
import repro.query.Compiler

/** One run of one workload: set the stores up `SetupReps` times, check every
  * (query, parameters) against an independent count, then run a closed loop
  * with one client over the three systems for `--seconds` seconds and print
  * the metrics as the last line of standard output.
  *
  *   --workload ldbc-interactive|khop-social|job-star  --seed N
  *   --seconds S  --trace 0|1
  *
  * With `--trace 0` the result holds the end-to-end metrics; with
  * `--trace 1` it holds the per-layer metrics, timed around the calls into
  * each module from this file (README.md lists them).
  */
object Main {

  /** System order inside a round: each (query, parameters) runs on GF-CL,
    * then GF-CV, then GF-RV, before the next one starts.
    */
  val Systems: Seq[String] = Seq("gfcl", "gfcv", "gfrv")
  val SetupReps = 3
  val MinOpsPerSystem = 100
  val SparkThreads = 4

  final case class Args(workload: Workload, seed: Long, seconds: Int, trace: Boolean)

  def parseArgs(argv: Array[String]): Args = {
    def usage(msg: String): Nothing = {
      System.err.println(s"$msg\nusage: --workload <${Workloads.all.map(_.name).mkString("|")}> " +
        "--seed <n> --seconds <n> --trace <0|1>")
      sys.exit(2)
    }
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => usage(s"bad argument: ${other.mkString(" ")}")
    }.toMap
    def get(k: String) = kv.getOrElse(k, usage(s"missing --$k"))
    val wl = Workloads.all.find(_.name == get("workload")).getOrElse(usage(s"unknown workload ${get("workload")}"))
    val trace = get("trace") match {
      case "0" => false
      case "1" => true
      case t => usage(s"--trace must be 0 or 1, got $t")
    }
    val seconds = get("seconds").toIntOption.filter(_ > 0).getOrElse(usage("--seconds must be a positive integer"))
    Args(wl, get("seed").toLongOption.getOrElse(usage("--seed must be an integer")), seconds, trace)
  }

  /** The stores of one dataset, built from one generation. */
  final class Built(val spec: DatasetSpec, val data: GraphData, val collected: CollectedGraph,
                    val gfcl: GraphStore, val gfrv: GraphStore)

  /** Seconds spent per layer in one set-up (traced runs only). */
  final class SetupLayers {
    var generate, collect, buildCl, buildRv = 0.0
  }

  private def secondsOf[A](acc: Double => Unit)(f: => A): A = {
    val t0 = System.nanoTime()
    val r = f
    acc((System.nanoTime() - t0) / 1e9)
    r
  }

  /** Generate, collect and build every dataset of the workload. When
    * `layers` is set, each DataFrame is forced into the Spark cache first
    * so that generation and collection are timed apart.
    */
  def setup(spark: SparkSession, wl: Workload, seed: Long, layers: Option[SetupLayers]): Seq[Built] =
    wl.datasets.map { spec =>
      val data = spec.generate(spark, seed)
      val collected = layers match {
        case None => GraphLoader.collect(data)
        case Some(l) =>
          val frames: Seq[DataFrame] = (data.vertices.values ++ data.edges.values).toSeq
          secondsOf(l.generate += _)(frames.foreach(_.persist(StorageLevel.MEMORY_ONLY).count()))
          val c = secondsOf(l.collect += _)(GraphLoader.collect(data))
          frames.foreach(_.unpersist(blocking = true))
          c
      }
      val gfcl = secondsOf(t => layers.foreach(_.buildCl += t))(GraphLoader.build(collected, StorageConfig.GFCL))
      val gfrv = secondsOf(t => layers.foreach(_.buildRv += t))(GraphLoader.build(collected, StorageConfig.GFRV))
      new Built(spec, data, collected, gfcl, gfrv)
    }

  def session(workDir: java.io.File): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$SparkThreads]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", SparkThreads.toString)
      .config("spark.sql.warehouse.dir", new java.io.File(workDir, "warehouse").getAbsolutePath)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  private def deleteTree(f: java.io.File): Unit = {
    Option(f.listFiles).foreach(_.foreach(deleteTree))
    f.delete()
  }

  /** Expected count of each instance: its plain-Scala computation, or
    * DuckDB over the same tables. Untimed; DuckDB's own time per query is
    * printed for reference.
    */
  def expectedCounts(spark: SparkSession, built: Seq[Built], instances: Seq[(Int, Instance)],
                     workDir: java.io.File): Array[Long] = {
    val out = new Array[Long](instances.size)
    built.zipWithIndex.foreach { case (b, di) =>
      val mine = instances.zipWithIndex.filter(_._1._1 == di)
      val (plain, viaDuck) = mine.partition(_._1._2.independent.isDefined)
      plain.foreach { case ((_, inst), i) => out(i) = inst.independent.get(b.collected) }
      if (viaDuck.nonEmpty) {
        val dir = new java.io.File(workDir, s"duck-${b.spec.name}")
        val conn = SqlBaseline.loadDuckDb(spark, b.data, dir.getAbsolutePath)
        try viaDuck.foreach { case ((_, inst), i) =>
          val t0 = System.nanoTime()
          out(i) = SqlBaseline.duckCount(conn, inst.query)
          println(f"duckdb_ms ${inst.query.name} ${(System.nanoTime() - t0) / 1e6}%.3f")
        } finally { conn.close(); deleteTree(dir) }
      }
    }
    out
  }

  /** Growable primitive buffer: the timed loop records without boxing. */
  final class Samples {
    private var a = new Array[Long](64)
    var size = 0
    def +=(x: Long): Unit = {
      if (size == a.length) a = java.util.Arrays.copyOf(a, size * 2)
      a(size) = x; size += 1
    }
    def ms: Seq[Double] = (0 until size).map(i => a(i) / 1e6)
    def sum: Long = { var s = 0L; var i = 0; while (i < size) { s += a(i); i += 1 }; s }
  }

  /** The closed loop. Per operation it records the latency of compile plus
    * count; when tracing, also compile and execution apart, the bytes the
    * thread allocated while executing, and the GC time that elapsed.
    */
  final class Loop(built: Seq[Built], instances: Seq[(Int, Instance)], expected: Array[Long], trace: Boolean) {
    val latency: Array[Samples] = Array.fill(Systems.size)(new Samples)
    val compile: Array[Samples] = Array.fill(Systems.size)(new Samples)
    val exec: Array[Samples] = Array.fill(Systems.size)(new Samples)
    val alloc: Array[Samples] = Array.fill(Systems.size)(new Samples)
    val gcMs: Array[Samples] = Array.fill(Systems.size)(new Samples)
    /** Per (instance, system): latency (untraced) or execution (traced). */
    val perOp: Array[Samples] = Array.fill(instances.size * Systems.size)(new Samples)
    private val reported = new Array[Boolean](instances.size)
    var attempted = 0L
    var failed = 0L

    private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toArray
    private def gcTime(): Long = { var t = 0L; gcs.foreach(g => t += math.max(0L, g.getCollectionTime)); t }

    private def runOp(i: Int, s: Int, record: Boolean): Option[Long] = {
      val (di, inst) = instances(i)
      val b = built(di)
      val store = if (Systems(s) == "gfrv") b.gfrv else b.gfcl
      val tid = Thread.currentThread.getId
      var tc, a0, g0 = 0L
      val t0 = System.nanoTime()
      val r = try {
        val plan = Compiler.compile(inst.query, store)
        if (trace) { tc = System.nanoTime(); a0 = threads.getThreadAllocatedBytes(tid); g0 = gcTime() }
        Some(if (Systems(s) == "gfcl") Lbp.count(store, plan) else Volcano.count(store, plan))
      } catch {
        case NonFatal(e) =>
          System.err.println(s"${inst.query.name} on ${Systems(s)} threw: $e")
          None
      }
      val t1 = System.nanoTime()
      if (record) {
        latency(s) += t1 - t0
        if (trace && tc != 0L) {
          val a1 = threads.getThreadAllocatedBytes(tid)
          gcMs(s) += gcTime() - g0
          alloc(s) += a1 - a0
          compile(s) += tc - t0
          exec(s) += t1 - tc
          perOp(i * Systems.size + s) += t1 - tc
        } else if (!trace) perOp(i * Systems.size + s) += t1 - t0
      }
      r
    }

    def round(record: Boolean): Unit = {
      var i = 0
      while (i < instances.size) {
        val results = Systems.indices.map(s => runOp(i, s, record))
        val bad = Check.failed(expected(i), results)
        if (record) {
          attempted += Systems.size
          failed += bad.count(identity)
        }
        if (bad.exists(identity) && !reported(i)) {
          System.err.println(s"FAILED ${instances(i)._2.query.name}: expected ${expected(i)}, got " +
            Systems.zip(results).map { case (n, r) => s"$n=${r.getOrElse("threw")}" }.mkString(" "))
          reported(i) = true
        }
        i += 1
      }
    }

    /** Warm-up rounds, then whole timed rounds until `seconds` have passed
      * and every system has at least `MinOpsPerSystem` timed operations.
      */
    def run(warmupRounds: Int, seconds: Int): Int = {
      (1 to warmupRounds).foreach(_ => round(record = false))
      val minRounds = (MinOpsPerSystem + instances.size - 1) / instances.size
      val t0 = System.nanoTime()
      var rounds = 0
      while (rounds < minRounds || System.nanoTime() - t0 < seconds * 1000000000L) {
        round(record = true)
        rounds += 1
      }
      rounds
    }
  }

  private val started = System.nanoTime()
  private def phase(what: String): Unit =
    System.err.println(f"perfbench: $what at ${(System.nanoTime() - started) / 1e9}%.1f s")

  def main(argv: Array[String]): Unit = {
    val args = parseArgs(argv)
    val wl = args.workload
    val workDir = new java.io.File(sys.props.getOrElse("perfbench.work", ".bench_build/work"))
    workDir.mkdirs()
    val spark = session(workDir)
    phase("Spark session started")
    try {
      val setups = (1 to SetupReps).map { _ =>
        val layers = if (args.trace) Some(new SetupLayers) else None
        val t0 = System.nanoTime()
        val b = setup(spark, wl, args.seed, layers)
        ((System.nanoTime() - t0) / 1e9, layers, b)
      }
      val built = setups.last._3
      phase(s"$SetupReps set-ups done")

      // Input fingerprint: the same seed must give the same inputs, in
      // every set-up of this run and in every run.
      val sums = setups.map(_._3.map(b => Stats.checksum(b.collected)))
      val deterministic = sums.distinct.size == 1
      if (!deterministic) System.err.println(s"set-ups built different inputs: $sums")
      built.zip(sums.last).foreach { case (b, sum) =>
        val g = b.collected
        val vs = g.schema.vertices.indices.map(i => s"${g.schema.vertices(i).name}=${g.vertexCounts(i)}")
        val es = g.schema.edges.indices.map(i => s"${g.schema.edges(i).name}=${g.edgeCount(i)}")
        println(f"fingerprint ${b.spec.name} checksum=$sum%016x vertices ${vs.mkString(" ")} edges ${es.mkString(" ")}")
      }

      val rnd = new java.util.Random(args.seed)
      val instances = built.zipWithIndex.flatMap { case (b, di) =>
        b.spec.instances(b.collected, rnd).map(di -> _)
      }
      val expected = expectedCounts(spark, built, instances, workDir)
      instances.zip(expected).foreach { case ((_, inst), c) => println(s"fingerprint count ${inst.query.name}=$c") }
      phase("expected counts done")
      println(s"fingerprint zero-counts ${expected.count(_ == 0L)} of ${expected.length}")

      // Compact the heap so the stores no longer sit among set-up garbage:
      // otherwise the first collection during the loop moves them and
      // shifts every later latency.
      System.gc()
      val loop = new Loop(built, instances, expected, args.trace)
      val rounds = loop.run(wl.warmupRounds, args.seconds)
      phase("timed loop done")
      println(s"rounds $rounds, ${loop.latency(0).size} timed operations per system")
      for (i <- instances.indices; s <- Systems.indices) {
        val what = if (args.trace) "exec_ms" else "op_ms"
        println(f"$what ${Systems(s)} ${instances(i)._2.query.name} ${Stats.median(loop.perOp(i * Systems.size + s).ms)}%.4f")
      }

      val mb = 1e6
      val endToEnd = Seq(
        ("setup_s", Stats.median(setups.map(_._1)), "s"),
        ("gfcl_store_mb", built.map(_.gfcl.totalBytes).sum / mb, "MB"),
        ("gfrv_store_mb", built.map(_.gfrv.totalBytes).sum / mb, "MB")) ++
        Systems.indices.flatMap { s =>
          val ms = loop.latency(s).ms
          Seq(
            (s"${Systems(s)}_p50_ms", Stats.median(ms), "ms"),
            (s"${Systems(s)}_p90_ms", Stats.percentile(ms, 0.9), "ms"),
            (s"${Systems(s)}_qps", ms.size / (ms.sum / 1e3), "ops/s"))
        }

      val metrics = if (!args.trace) endToEnd else {
        // The traced run's own end-to-end figures, for the tracing overhead.
        println("traced-end-to-end " + Stats.resultJson(loop.failed == 0, loop.attempted, loop.failed, endToEnd))
        val layers = setups.map(_._2.get)
        def med(f: SetupLayers => Double) = Stats.median(layers.map(f))
        val p = wl.primitives
        val pb = built(p.dataset)
        Seq(
          ("datasets.generate_s", med(_.generate), "s"),
          ("core.collect_s", med(_.collect), "s"),
          ("core.build_s.gfcl", med(_.buildCl), "s"),
          ("core.build_s.gfrv", med(_.buildRv), "s"),
          ("storage.vertex_props_mb", built.map(_.gfcl.vertexPropBytes).sum / mb, "MB"),
          ("storage.edge_props_mb", built.map(_.gfcl.edgePropBytes).sum / mb, "MB"),
          ("storage.fwd_adj_mb", built.map(_.gfcl.fwdAdjBytes).sum / mb, "MB"),
          ("storage.bwd_adj_mb", built.map(_.gfcl.bwdAdjBytes).sum / mb, "MB"),
          ("query.compile_ms.gfcl", Stats.median(loop.compile(0).ms ++ loop.compile(1).ms), "ms"),
          ("query.compile_ms.gfrv", Stats.median(loop.compile(2).ms), "ms")) ++
          Systems.indices.map(s => (s"engine.exec_ms.${Systems(s)}", Stats.median(loop.exec(s).ms), "ms")) ++
          Systems.indices.map(s => (s"engine.alloc_bytes_per_op.${Systems(s)}",
            loop.alloc(s).sum.toDouble / loop.alloc(s).size, "bytes")) ++
          Systems.indices.map(s => (s"engine.gc_ms.${Systems(s)}", loop.gcMs(s).sum.toDouble, "ms")) ++
          Primitives.measure(p, pb.collected, pb.gfcl, pb.gfrv).map { case (n, v) => (n, v, "ns") }
      }
      phase("done")
      println(Stats.resultJson(deterministic && loop.failed == 0, loop.attempted, loop.failed, metrics))
    } finally {
      spark.stop()
    }
  }
}
